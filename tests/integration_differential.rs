//! The differential oracle suite: every generated query family runs through
//! every plan-strategy rung — the planner's own pick, the forced indexed
//! fallback, and (where applicable) the witness rung — at batch widths 1, 2
//! and 4, and every configuration must return a [`ResultSet`] identical to
//! naive homomorphism enumeration (sorted-tuple comparison; `ResultSet`
//! equality also covers the column names).
//!
//! The executor has one path, so the parallelism axis is driven where the
//! engine actually fans out: each cell runs its whole query family as one
//! [`Database::run_batch`] (one query per claim above width 1).
//!
//! The suite prints one `differential digest:` line per test, a hash over
//! the display form of every (query, answers) pair.  CI runs the suite
//! twice under `--test-threads=1`, once under `--test-threads=4`, and diffs
//! those lines: any scheduling or iteration-order nondeterminism that leaks
//! into results breaks the build.

use sac::prelude::*;
use std::collections::BTreeSet;

/// FNV-1a over the display form of everything the sweep produced: cheap,
/// dependency-free, and stable across runs iff the results are.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn absorb(&mut self, text: &str) {
        for byte in text.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A result in digest form: [`ResultSet`]'s display layout with the rows
/// sorted by their **rendered text**.  The set's own row order is `Term`'s
/// `Ord`, which compares symbols by *intern* order — and the threaded test
/// harness interns the fixtures' constants in a different order on every
/// run, so absorbing the raw display made the sweep digests differ between
/// `--test-threads=1` and `--test-threads=4` for identical answers.
fn render(result: &ResultSet) -> String {
    if result.columns().is_empty() {
        return result.is_true().to_string();
    }
    let mut rows: Vec<String> = result.iter().map(Row::to_string).collect();
    rows.sort_unstable();
    let mut text = format!("[{}]", result.columns().join(", "));
    for row in rows {
        text.push(' ');
        text.push_str(&row);
    }
    text
}

const PARALLELISM_LEVELS: [usize; 3] = [1, 2, 4];

/// Every generated query family over the binary `E` graph schema, plus
/// non-Boolean variants (projection exercises the join-back-up phase and
/// the fallback's head materialization).
fn graph_queries() -> Vec<ConjunctiveQuery> {
    let mut queries = Vec::new();
    for n in 1..=4 {
        queries.push(sac::gen::path_query(n));
        queries.push(sac::gen::star_query(n));
    }
    for n in 2..=5 {
        queries.push(sac::gen::cycle_query(n));
    }
    queries.push(sac::gen::clique_query(3));
    // Semantically acyclic with no constraints: drives the witness rung.
    queries.push(sac::gen::looped_triangle_query());
    // Non-Boolean path endpoints.
    queries.push(
        ConjunctiveQuery::new(
            vec![intern("x0"), intern("x2")],
            sac::gen::path_query(2).body,
        )
        .unwrap(),
    );
    // Non-Boolean cyclic query with projection.
    queries.push(ConjunctiveQuery::new(vec![intern("x0")], sac::gen::cycle_query(3).body).unwrap());
    queries
}

/// Runs `queries` on `data` through one (config, batch width) cell as a
/// single batch — serial at width 1, fanned out per query above it — and
/// returns the typed result sets.
fn run_cell(
    data: &Instance,
    tgds: &[Tgd],
    queries: &[ConjunctiveQuery],
    force_indexed: bool,
    parallelism: usize,
    seen: &mut BTreeSet<String>,
) -> Vec<ResultSet> {
    let config = EngineConfig { force_indexed };
    let db = Database::from_instance(data.clone())
        .with_tgds(tgds.to_vec())
        .with_config(config)
        .with_parallelism(parallelism);
    let results = db.run_batch(queries);
    seen.extend(queries.iter().map(|q| db.explain(q).strategy.to_string()));
    let fanned_out = if parallelism > 1 { queries.len() } else { 0 };
    assert_eq!(db.metrics().morsels_dispatched, fanned_out);
    // The Boolean reading stops early on every rung and must agree.
    for (query, result) in queries.iter().zip(&results) {
        let prepared = db.prepare(query).expect("the query planned once already");
        assert_eq!(
            prepared.execute_boolean(),
            !prepared.execute().is_empty(),
            "{query}"
        );
        assert_eq!(prepared.execute_boolean(), !result.is_empty(), "{query}");
        assert_eq!(db.run_boolean(query), !result.is_empty(), "{query}");
    }
    results
}

/// Every (batch width, forced-fallback) cell of `queries` over `data`: the
/// width-1 planner's-pick cell must equal naive evaluation, and every other
/// cell must be identical to it — column names, row order and row count,
/// not just the tuple sets.  Returns that first cell.
fn identical_cells(
    data: &Instance,
    tgds: &[Tgd],
    queries: &[ConjunctiveQuery],
    seen: &mut BTreeSet<String>,
) -> Vec<ResultSet> {
    let mut first: Option<Vec<ResultSet>> = None;
    for parallelism in PARALLELISM_LEVELS {
        for force_indexed in [false, true] {
            let cell = run_cell(data, tgds, queries, force_indexed, parallelism, seen);
            match &first {
                None => {
                    for (query, result) in queries.iter().zip(&cell) {
                        assert_eq!(
                            result.clone().into_tuples(),
                            evaluate(query, data),
                            "the engine disagrees with naive evaluation on {query}"
                        );
                    }
                    first = Some(cell);
                }
                Some(first) => assert_eq!(
                    &cell, first,
                    "forced={force_indexed} at parallelism {parallelism} differs from \
                     the serial planner's-pick cell"
                ),
            }
        }
    }
    first.expect("at least one cell ran")
}

#[test]
fn every_rung_and_parallelism_level_matches_naive_evaluation() {
    let databases = [
        ("sparse graph", sac::gen::random_graph_database(10, 25, 7)),
        ("dense graph", sac::gen::random_graph_database(14, 90, 41)),
    ];
    let queries = graph_queries();
    let mut digest = Digest::new();
    let mut seen = BTreeSet::new();
    for (name, data) in &databases {
        let results = identical_cells(data, &[], &queries, &mut seen);
        for (query, result) in queries.iter().zip(&results) {
            digest.absorb(&format!("{name} | {query} -> {}", render(result)));
        }
    }
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        vec![
            "indexed-search".to_owned(),
            "yannakakis-direct".to_owned(),
            "yannakakis-witness".to_owned(),
        ],
        "the sweep must exercise all three strategy rungs"
    );
    println!("differential digest: graph sweep {:016x}", digest.0);
}

#[test]
fn witness_rung_under_tgds_matches_naive_at_every_parallelism() {
    let data = sac::gen::music_database(30, 60, 5);
    let tgds = vec![sac::gen::collector_tgd()];
    let query = sac::gen::example1_triangle();
    // The triangle beside its Boolean shadow: a batch of two fans out.
    let queries = [
        query.clone(),
        ConjunctiveQuery::boolean(query.body.clone()).unwrap(),
    ];
    let mut digest = Digest::new();
    let mut seen = BTreeSet::new();
    let results = identical_cells(&data, &tgds, &queries, &mut seen);
    assert!(
        seen.contains("yannakakis-witness"),
        "the collector tgd must put Example 1 on the witness rung"
    );
    assert!(seen.contains("indexed-search"));
    digest.absorb(&format!("{query} -> {}", render(&results[0])));
    println!("differential digest: tgd witness {:016x}", digest.0);
}

#[test]
fn maintained_views_match_from_scratch_queries_after_every_append_batch() {
    // Every generated query family becomes a standing query, and after
    // every append batch its maintained contents must be cell-identical
    // (columns, rows, order) to a from-scratch `query()` on the same
    // database AND to naive evaluation over the accumulated facts — across
    // the planner's own rung (the search rung for the cyclic families) and
    // the forced indexed fallback, at batch
    // widths 1, 2 and 4 (the from-scratch runs are one `run_batch`, fanned
    // out above width 1, racing nothing: maintenance happened under the
    // insert's write guard).  Even-indexed views are auto-refreshed by the
    // inserts themselves; odd-indexed views stay lazy and are refreshed
    // here, so both maintenance shapes are driven.
    let (base, stream) = sac::gen::streaming_graph_workload(12, 40, 3, 8, 31);
    let mut digest = Digest::new();
    let mut seen = BTreeSet::new();
    for parallelism in PARALLELISM_LEVELS {
        for force_indexed in [false, true] {
            let config = EngineConfig { force_indexed };
            let db = Database::from_instance(base.clone())
                .with_config(config)
                .with_parallelism(parallelism);
            let mut queries = graph_queries();
            let digested = queries.len();
            // Genuinely cyclic views with answers to maintain (their own
            // cores, so on the search rung in the unforced cells too); kept
            // out of the digest, which predates them.
            for (head, n) in [(["x0", "x1"], 3), (["x0", "x2"], 4)] {
                let head = head.iter().map(|v| intern(v)).collect();
                let body = sac::gen::cycle_query(n).body;
                queries.push(ConjunctiveQuery::new(head, body).unwrap());
            }
            let views: Vec<MaterializedView<'_>> = queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    db.materialize_with(
                        q,
                        ViewOptions {
                            auto_refresh: i % 2 == 0 && i < digested,
                        },
                    )
                    .expect("generated queries are valid")
                })
                .collect();
            let mut accumulated = base.clone();
            for batch in &stream {
                for atom in batch {
                    db.insert(atom.clone()).unwrap();
                    accumulated.insert(atom.clone()).unwrap();
                }
                let from_scratch = db.run_batch(&queries);
                for (view, scratch) in views.iter().zip(&from_scratch) {
                    seen.insert(view.strategy().to_string());
                    let report = view.refresh(); // no-op for fresh auto views
                    if view.options().auto_refresh {
                        assert_eq!(
                            report.mode,
                            RefreshMode::Fresh,
                            "auto views must already be fresh after the inserts"
                        );
                    } else if !view.query().is_boolean() {
                        // A batch is well under half the graph: no rung
                        // recomputes it.
                        assert_eq!(
                            report.mode,
                            RefreshMode::Incremental,
                            "{} must take the batch as a delta (forced={force_indexed})",
                            view.query()
                        );
                    }
                    let snapshot = view.snapshot();
                    assert_eq!(
                        &snapshot,
                        scratch,
                        "maintained view differs from a from-scratch run of {} \
                         (forced={force_indexed}, parallelism {parallelism})",
                        view.query()
                    );
                    assert_eq!(
                        &snapshot.into_tuples(),
                        &evaluate(view.query(), &accumulated),
                        "maintained view differs from naive evaluation of {} \
                         (forced={force_indexed}, parallelism {parallelism})",
                        view.query()
                    );
                }
            }
            for view in &views[..digested] {
                digest.absorb(&format!(
                    "forced={force_indexed} par={parallelism} | {} -> {}",
                    view.query(),
                    render(&view.snapshot())
                ));
            }
        }
    }
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        vec![
            "indexed-search".to_owned(),
            "yannakakis-direct".to_owned(),
            "yannakakis-witness".to_owned(),
        ],
        "the view sweep must cover all three strategy rungs"
    );
    println!("differential digest: view sweep {:016x}", digest.0);
}

#[test]
fn tgd_witness_views_stay_exact_under_constraint_closed_appends() {
    // A standing Example 1 triangle under the collector tgd: the view's
    // plan sits on the witness rung (refreshes push deltas through the
    // witness's join tree, like Datalog's delta passes do), and appends that
    // keep the database closed under the tgd must keep the maintained
    // answers equal to naive evaluation of the *original* cyclic query.
    // Each batch is one whole new customer (interest plus every owned
    // record), so the database is constraint-closed at every observation
    // point — the witness rung's contract, exactly as for queries.
    let mut accumulated = sac::gen::music_database(20, 40, 4);
    let mut digest = Digest::new();
    let db =
        Database::from_instance(accumulated.clone()).with_tgds(vec![sac::gen::collector_tgd()]);
    let view = db
        .materialize(sac::gen::example1_triangle())
        .expect("Example 1 is a valid standing query");
    assert_eq!(view.strategy(), PlanStrategy::YannakakisWitness);
    for customers in 21..=26 {
        let bigger = sac::gen::music_database(customers, 40, 4);
        let batch: Vec<Atom> = bigger
            .atoms()
            .filter(|a| !accumulated.contains(a))
            .collect();
        assert!(!batch.is_empty());
        for atom in batch {
            db.insert(atom.clone()).unwrap();
            accumulated.insert(atom).unwrap();
        }
        assert!(view.is_fresh());
        assert_eq!(
            view.snapshot().into_tuples(),
            evaluate(view.query(), &accumulated),
            "witness-rung view drifted under closed appends"
        );
    }
    assert!(db.metrics().view_refreshes_incremental > 0);
    digest.absorb(&format!("{} -> {}", view.query(), render(&view.snapshot())));
    println!("differential digest: tgd view {:016x}", digest.0);
}

#[test]
fn parallel_batches_are_identical_to_serial_batches() {
    let data = sac::gen::random_graph_database(12, 60, 19);
    let workload: Vec<ConjunctiveQuery> = (0..3).flat_map(|_| graph_queries()).collect();
    let serial = Database::from_instance(data.clone());
    let expected = serial.run_batch(&workload);
    let mut digest = Digest::new();
    for parallelism in [2, 4] {
        let parallel = Database::from_instance(data.clone()).with_parallelism(parallelism);
        let got = parallel.run_batch(&workload);
        assert_eq!(expected, got, "batch at parallelism {parallelism} drifted");
        let m = parallel.metrics();
        assert_eq!(m.queries_run, workload.len());
        assert_eq!(m.morsels_dispatched, workload.len(), "one per query");
    }
    for (query, result) in workload.iter().zip(&expected) {
        digest.absorb(&format!("{query} -> {}", render(result)));
    }
    println!("differential digest: batch sweep {:016x}", digest.0);
}

#[test]
fn trace_structure_is_deterministic_across_runs() {
    // Query traces carry wall times (nondeterministic by nature) next to
    // structure (rung, cache outcomes, per-node rows, answers).  The
    // structure must be a pure function of (data, query, config) — and, a
    // single run being the one serial path, not of the batch width: this
    // digest folds `QueryTrace::structure_digest` for the whole sweep into
    // one `differential digest:` line, so the CI double-run diff catches
    // any scheduling nondeterminism that leaks into what traces *say*.
    let data = sac::gen::random_graph_database(10, 25, 7);
    let mut digest = Digest::new();
    let mut at_width_one = Vec::new();
    for parallelism in PARALLELISM_LEVELS {
        for (i, query) in graph_queries().iter().enumerate() {
            let db = Database::from_instance(data.clone()).with_parallelism(parallelism);
            let (cold_result, cold) = db.run_traced(query);
            let (warm_result, warm) = db.run_traced(query);
            assert_eq!(cold_result, warm_result);
            assert!(!cold.plan_cache_hit && warm.plan_cache_hit);
            assert_eq!(
                warm.structure_digest(),
                db.run_traced(query).1.structure_digest(),
                "repeat runs must agree structurally on {query}"
            );
            let structure = (cold.structure_digest(), warm.structure_digest());
            if parallelism == 1 {
                at_width_one.push(structure);
            }
            assert_eq!(
                structure, at_width_one[i],
                "width {parallelism} changed the trace of {query}"
            );
            assert_eq!(db.metrics().morsels_dispatched, 0, "single runs: serial");
            digest.absorb(&format!(
                "par={parallelism} | {query} -> {:016x} {:016x}",
                cold.structure_digest(),
                warm.structure_digest()
            ));
        }
    }
    println!("differential digest: trace structure {:016x}", digest.0);
}
