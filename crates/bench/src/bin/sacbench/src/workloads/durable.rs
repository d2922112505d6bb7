//! `ingest` and `recover`: the durable write path and the way back from a
//! kill.
//!
//! **Flush policy (identical on both sides of every comparison):**
//! `SyncMode::Never`, `snapshot_every: 0`, one explicit `sync_wal()` every
//! 32 batches, issued *between* requests — fsync latency is the sandbox's,
//! not the engine's, and is reported per layer only (`wal.fsync_p50_us`).
//!
//! `ingest`: a request is one cycle — `extend_from` a 50-edge batch (one
//! WAL frame; the auto-refresh view is maintained inside it) and two
//! prepared point queries that read the indexes the append just grew.
//! Set-up opens the directory, loads the 8 000-edge base, checkpoints,
//! registers the view, prepares the queries and runs eight warm-up cycles.
//!
//! `recover`: a request is `Database::open_with` on a fresh copy of a killed
//! directory (snapshot of the base plus a 300-frame WAL tail).  Set-up
//! builds that directory.  Every recovered copy must be atom-identical and
//! query-identical to a twin that never restarted; one torn-tail copy per
//! round must recover exactly the acknowledged prefix.

use super::{anchor_node, digest_atoms, digest_oracle, digest_result, run_rounds, Ctx, Recorder};
use crate::host::{copy_dir, dir_bytes};
use crate::stats::{median_ns, p50_ns_of, percentile_ns, timed};
use sac::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const OPTIONS: DurabilityOptions = DurabilityOptions {
    sync_mode: SyncMode::Never,
    snapshot_every: 0,
};
const SYNC_EVERY: usize = 32;
const BATCH: usize = 50;
const WARMUP_CYCLES: usize = 8;
/// A small-output standing query (`hub-3rays`): its maintenance cost is
/// reported (`view.*`), not assumed.
const VIEW: &str = "q(C) :- E(C, L0), E(C, L1), E(C, L2).";
const HEAVY: &str = "q(X, Z) :- E(X, Y), E(Y, Z).";

struct StreamInputs {
    base: Instance,
    deltas: Vec<Instance>,
    /// Two point queries anchored at a node of degree (2, 2) in the base.
    queries: [String; 2],
}

fn stream_inputs(ctx: &Ctx, cycles: usize) -> StreamInputs {
    let (nodes, base_edges) = (ctx.size(4_000, 200), ctx.size(8_000, 400));
    let (base, stream) =
        sac::gen::streaming_graph_workload(nodes, base_edges, cycles, BATCH, ctx.seed);
    let deltas = stream
        .into_iter()
        .map(|batch| Instance::from_atoms(batch).expect("consistent arities"))
        .collect();
    let c = anchor_node(&base, 2);
    StreamInputs {
        queries: [
            format!("q(A, B) :- E({c}, A), E({c}, B)."),
            format!("q(X) :- E(X, {c})."),
        ],
        base,
        deltas,
    }
}

impl StreamInputs {
    fn prepare_queries<'db>(&self, db: &'db Database) -> Vec<PreparedQuery<'db>> {
        self.queries
            .iter()
            .map(|q| db.prepare(q).expect("valid query"))
            .collect()
    }

    /// The base plus the first `cycles` batches: what a database that
    /// acknowledged them must contain.
    fn contents_after(&self, cycles: usize) -> Instance {
        let mut instance = self.base.clone();
        for delta in &self.deltas[..cycles] {
            instance.extend_from(delta).expect("consistent arities");
        }
        instance
    }
}

fn fresh_dir(ctx: &Ctx, name: &str) -> PathBuf {
    let dir = ctx.scratch.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn message(e: SacError) -> String {
    e.to_string()
}

/// Opens `dir`, loads the base and checkpoints it: the state every ingest
/// round and every killed directory starts from.
fn open_loaded(dir: &Path, base: &Instance, options: DurabilityOptions) -> Database {
    let db = Database::open_with(dir, options).expect("create durable database");
    db.extend_from(base).expect("load base");
    db.checkpoint().expect("baseline checkpoint");
    db
}

fn same_atoms(db: &Database, expected: &Instance) -> bool {
    db.len() == expected.len() && db.read(|inst| expected.atoms().all(|a| inst.contains(&a)))
}

pub fn run_ingest(ctx: &Ctx, rec: &mut Recorder) {
    let cycles = ctx.size(600, 24);
    let inputs = stream_inputs(ctx, WARMUP_CYCLES + cycles);
    let rounds = ctx.rounds(26);
    let view_query: ConjunctiveQuery = VIEW.parse().expect("valid view");
    let queries: Vec<ConjunctiveQuery> = inputs
        .queries
        .iter()
        .map(|q| q.parse().expect("valid query"))
        .collect();
    let expected = inputs.contents_after(WARMUP_CYCLES + cycles);
    run_rounds(rec, rounds, cycles, |round, rec| {
        let dir = fresh_dir(ctx, &format!("ingest-{round}"));
        let start = Instant::now();
        let db = open_loaded(&dir, &inputs.base, OPTIONS);
        let view = db.materialize(VIEW).expect("valid view");
        let prepared = inputs.prepare_queries(&db);
        let cycle = |delta: &Instance| -> Result<(usize, ResultSet, ResultSet), String> {
            let added = db.extend_from(delta).map_err(message)?;
            Ok((added, prepared[0].execute(), prepared[1].execute()))
        };
        for delta in &inputs.deltas[..WARMUP_CYCLES] {
            cycle(delta).expect("warm-up cycle");
        }
        rec.setup_done(start);

        let mut rows = (0usize, 0usize);
        for (i, delta) in inputs.deltas[WARMUP_CYCLES..].iter().enumerate() {
            let answer = rec.request(|| cycle(delta));
            if (i + 1) % SYNC_EVERY == 0 {
                db.sync_wal().expect("sync_wal");
            }
            let Some((added, first, second)) = answer else {
                continue;
            };
            rec.check(added == delta.len(), || {
                format!("cycle {i}: {added} of {} rows acknowledged", delta.len())
            });
            // Appends are monotone: answers only ever grow.
            rec.check(first.len() >= rows.0 && second.len() >= rows.1, || {
                format!("cycle {i}: an answer shrank")
            });
            rows = (first.len(), second.len());
            if (i + 1) % 100 == 0 || i + 1 == cycles {
                // Maintained view == recompute, answers == oracle.
                rec.check(view.snapshot() == db.run(&view_query), || {
                    format!("cycle {i}: maintained view drifted from recompute")
                });
                for (query, answer) in queries.iter().zip([&first, &second]) {
                    let oracle = db.read(|inst| digest_oracle(query, inst));
                    rec.check(digest_result(answer, "") == oracle, || {
                        format!("cycle {i}: {query} disagrees with the oracle")
                    });
                }
            }
            if round == 0 && i + 1 == cycles {
                rec.digest("view", digest_result(&view.snapshot(), "").1);
                rec.digest("query_star", digest_result(&first, "").1);
                rec.digest("query_inbound", digest_result(&second, "").1);
                rec.count("view_rows", view.len());
            }
        }
        rec.check(same_atoms(&db, &expected), || {
            "ingested database differs from base + batches".to_owned()
        });
        if round == 0 {
            let metrics = db.metrics();
            rec.count("wal_frames", metrics.wal_appends);
            rec.count("wal_bytes", metrics.wal_bytes);
            rec.count("stored_bytes_at_kill", dir_bytes(&dir) as usize);
            rec.count("rows_ingested", db.len());
        }
        drop(prepared);
        drop(view);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    });
    rec.count("rounds", rounds);
    rec.count("requests_per_round", cycles);
    rec.digest("atoms", digest_atoms(expected.atoms()));
}

/// A killed directory: the base checkpointed, then `frames` batches in the
/// WAL tail, dropped without a checkpoint.  With `with_view`, the standing
/// query and the two point queries' plans are persisted too.
fn build_killed_dir(dir: &Path, inputs: &StreamInputs, frames: usize, with_view: bool) {
    let db = open_loaded(dir, &inputs.base, OPTIONS);
    let view = with_view.then(|| db.materialize(VIEW).expect("valid view"));
    if with_view {
        for query in &inputs.queries {
            db.query(query.as_str()).expect("valid query");
        }
        // Plan fingerprints live in snapshots: persist them.
        db.checkpoint().expect("checkpoint");
    }
    for (i, delta) in inputs.deltas[..frames].iter().enumerate() {
        db.extend_from(delta).expect("durable append");
        if (i + 1) % SYNC_EVERY == 0 {
            db.sync_wal().expect("sync_wal");
        }
    }
    db.sync_wal().expect("sync_wal");
    drop(view);
}

/// What a recovered database must reproduce: the twin that never restarted.
struct Twin {
    contents: Instance,
    view: ResultSet,
    answers: Vec<ResultSet>,
}

fn twin_of(inputs: &StreamInputs, frames: usize) -> Twin {
    let contents = inputs.contents_after(frames);
    let db = Database::from_instance(contents.clone());
    Twin {
        view: db.query(VIEW).expect("valid view"),
        answers: inputs
            .queries
            .iter()
            .map(|q| db.query(q.as_str()).expect("valid query"))
            .collect(),
        contents,
    }
}

fn verify_recovered(
    db: &Database,
    twin: &Twin,
    inputs: &StreamInputs,
    frames: usize,
) -> Result<(), String> {
    let report = db.recovery_report().ok_or("no recovery report")?;
    if report.replayed_batches != frames || report.truncated_bytes != 0 {
        return Err(format!("unexpected recovery report {report:?}"));
    }
    if !same_atoms(db, &twin.contents) {
        return Err("recovered atoms differ from the twin's".to_owned());
    }
    for (text, expected) in inputs.queries.iter().zip(&twin.answers) {
        if &db.query(text.as_str()).map_err(message)? != expected {
            return Err(format!("{text}: recovered answer differs from the twin's"));
        }
    }
    match db.durable_views().first() {
        Some(view) if view.snapshot() == twin.view => Ok(()),
        Some(_) => Err("recovered view differs from the twin's".to_owned()),
        None => Err("the persisted view was not recovered".to_owned()),
    }
}

/// Tears the last WAL frame of `dir` and checks that recovery keeps exactly
/// the acknowledged prefix.
fn verify_torn_tail(dir: &Path, inputs: &StreamInputs, frames: usize) -> Result<(), String> {
    let wal = dir.join("wal.sacwal");
    let len = std::fs::metadata(&wal).map_err(|e| e.to_string())?.len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .and_then(|file| file.set_len(len - 7))
        .map_err(|e| e.to_string())?;
    let db = Database::open_with(dir, OPTIONS).map_err(message)?;
    let report = db.recovery_report().ok_or("no recovery report")?;
    if report.truncated_bytes == 0 || report.replayed_batches != frames - 1 {
        return Err(format!("torn tail: unexpected recovery report {report:?}"));
    }
    if !same_atoms(&db, &inputs.contents_after(frames - 1)) {
        return Err("torn tail: recovered state is not the acknowledged prefix".to_owned());
    }
    Ok(())
}

pub fn run_recover(ctx: &Ctx, rec: &mut Recorder) {
    let frames = ctx.size(300, 12);
    let opens = ctx.size(20, 3);
    let inputs = stream_inputs(ctx, frames);
    let twin = twin_of(&inputs, frames);
    let rounds = ctx.rounds(13);
    // One torn-tail recovery per round rides along (counted, not sampled:
    // it replays one frame fewer than a request does).
    run_rounds(rec, rounds, opens + 1, |round, rec| {
        let killed = fresh_dir(ctx, &format!("recover-{round}"));
        let start = Instant::now();
        build_killed_dir(&killed, &inputs, frames, true);
        rec.setup_done(start);
        if round == 0 {
            rec.count("killed_dir_bytes", dir_bytes(&killed) as usize);
        }
        for open in 0..opens {
            let copy = fresh_dir(ctx, &format!("recover-{round}-copy"));
            copy_dir(&killed, &copy).expect("copy killed directory");
            if let Some(db) = rec.request(|| Database::open_with(&copy, OPTIONS).map_err(message)) {
                if let Err(problem) = verify_recovered(&db, &twin, &inputs, frames) {
                    rec.fail(|| format!("round {round} open {open}: {problem}"));
                }
            }
            let _ = std::fs::remove_dir_all(&copy);
        }
        let torn = fresh_dir(ctx, &format!("recover-{round}-torn"));
        copy_dir(&killed, &torn).expect("copy killed directory");
        rec.attempted += 1;
        if let Err(problem) = verify_torn_tail(&torn, &inputs, frames) {
            rec.fail(|| format!("round {round}: {problem}"));
        }
        let _ = std::fs::remove_dir_all(&torn);
        let _ = std::fs::remove_dir_all(&killed);
    });
    // The torn-tail recoveries are attempted operations without a sample.
    rec.count("rounds", rounds);
    rec.count("opens_per_round", opens);
    rec.count("wal_frames_at_kill", frames);
    rec.count("atoms", twin.contents.len());
    rec.digest("atoms", digest_atoms(twin.contents.atoms()));
    rec.digest("view", digest_result(&twin.view, "").1);
    rec.digest("query_star", digest_result(&twin.answers[0], "").1);
    rec.digest("query_inbound", digest_result(&twin.answers[1], "").1);
}

/// Per-cycle latencies of one ingest round, split by what the cycle did.
struct CycleTimes {
    cycle_ns: Vec<u64>,
    append_ns: Vec<u64>,
    query_ns: [Vec<u64>; 2],
}

/// Registers the view, prepares the two queries and runs `deltas` as
/// untraced cycles (the e2e request, with a timer around each of its three
/// calls).  `synced` applies the flush policy of a durable database.
fn untraced_cycles(
    db: &Database,
    inputs: &StreamInputs,
    deltas: &[Instance],
    synced: bool,
) -> CycleTimes {
    let view = db.materialize(VIEW).expect("valid view");
    let prepared = inputs.prepare_queries(db);
    let mut times = CycleTimes {
        cycle_ns: Vec::with_capacity(deltas.len()),
        append_ns: Vec::with_capacity(deltas.len()),
        query_ns: [Vec::new(), Vec::new()],
    };
    for (i, delta) in deltas.iter().enumerate() {
        let (cycle, ()) = timed(|| {
            let (ns, added) = timed(|| db.extend_from(delta).expect("append"));
            times.append_ns.push(ns);
            assert_eq!(added, delta.len(), "every streamed atom is new");
            for (slot, query) in prepared.iter().enumerate() {
                let (ns, rows) = timed(|| query.execute().len());
                times.query_ns[slot].push(ns);
                std::hint::black_box(rows);
            }
        });
        times.cycle_ns.push(cycle);
        if synced && (i + 1) % SYNC_EVERY == 0 {
            db.sync_wal().expect("sync_wal");
        }
    }
    assert!(view.is_fresh(), "the auto-refresh view kept up");
    times
}

pub fn trace_ingest(ctx: &Ctx, rec: &mut Recorder) {
    let cycles = ctx.size(600, 24);
    let probe = ctx.size(100, 8);
    let inputs = stream_inputs(ctx, cycles + 2 * probe);
    let (main, extra) = inputs.deltas.split_at(cycles);
    let (solo, contended) = extra.split_at(probe);

    // Three untraced rounds over the same stream: the workload's own
    // configuration, the same without a log, the same with an fsync per
    // frame.  Their differences are the WAL's frame cost and the sandbox's
    // fsync.
    let dir = fresh_dir(ctx, "ingest-untraced");
    let durable = open_loaded(&dir, &inputs.base, OPTIONS);
    let mut plain = untraced_cycles(&durable, &inputs, main, true);
    let metrics = durable.metrics();
    rec.set("wal.frames", metrics.wal_appends as f64);
    rec.set(
        "wal.bytes_per_row",
        metrics.wal_bytes as f64 / durable.len() as f64,
    );
    rec.set(
        "wal.stored_bytes_per_row",
        dir_bytes(&dir) as f64 / durable.len() as f64,
    );
    rec.count("wal_frames", metrics.wal_appends);
    rec.count("wal_bytes", metrics.wal_bytes);
    let refreshes = metrics.view_refreshes_incremental + metrics.view_refreshes_full;
    rec.set(
        "view.incremental_share",
        metrics.view_refreshes_incremental as f64 / refreshes.max(1) as f64,
    );
    rec.set(
        "storage.heap_bytes_per_row",
        durable.heap_bytes() as f64 / durable.len() as f64,
    );
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);

    let append_total: u64 = plain.append_ns.iter().sum();
    let first_appends_p50 = median_ns(&mut plain.append_ns[..probe].to_vec());
    let append_p50 = median_ns(&mut plain.append_ns);
    rec.set("ingest.append_p50_us", append_p50 / 1e3);
    rec.set(
        "ingest.append_p95_us",
        percentile_ns(&mut plain.append_ns, 95.0) / 1e3,
    );
    rec.set(
        "ingest.append_rows_per_s",
        (cycles * BATCH) as f64 / (append_total as f64 / 1e9),
    );
    let mut all_queries: Vec<u64> = plain.query_ns.iter().flatten().copied().collect();
    rec.set("ingest.query_p50_us", median_ns(&mut all_queries) / 1e3);
    rec.set(
        "exec.shape_p50_us.ingest_star",
        median_ns(&mut plain.query_ns[0]) / 1e3,
    );
    rec.set(
        "exec.shape_p50_us.ingest_inbound",
        median_ns(&mut plain.query_ns[1]) / 1e3,
    );

    let undurable = Database::from_instance(inputs.base.clone());
    let mut without_log = untraced_cycles(&undurable, &inputs, main, false);
    rec.set(
        "wal.frame_us",
        (append_p50 - median_ns(&mut without_log.append_ns)) / 1e3,
    );
    drop(undurable);

    let dir = fresh_dir(ctx, "ingest-fsync");
    let always = open_loaded(
        &dir,
        &inputs.base,
        DurabilityOptions {
            sync_mode: SyncMode::Always,
            ..OPTIONS
        },
    );
    let mut fsynced = untraced_cycles(&always, &inputs, &main[..probe], false);
    rec.set(
        "wal.fsync_p50_us",
        (median_ns(&mut fsynced.append_ns) - first_appends_p50) / 1e3,
    );
    drop(always);
    let _ = std::fs::remove_dir_all(&dir);

    // The traced round: append and queries as child spans of the cycle, the
    // queries through `run_traced` with their phases below them.
    let dir = fresh_dir(ctx, "ingest-traced");
    let db = open_loaded(&dir, &inputs.base, OPTIONS);
    let view = db.materialize(VIEW).expect("valid view");
    let prepared = inputs.prepare_queries(&db);
    let span_names = ["exec.query_star", "exec.query_inbound"];
    let (mut hits, mut misses, mut plan_hits) = (0usize, 0usize, 0usize);
    for (i, delta) in main.iter().enumerate() {
        let op = i as u32;
        rec.attempted += 1;
        rec.spans.scope(op, "request", None, |spans, root| {
            let added = spans.call(op, "engine.append", Some(root), || {
                db.extend_from(delta).expect("durable append")
            });
            assert_eq!(added, delta.len(), "every streamed atom is new");
            for (slot, query) in prepared.iter().enumerate() {
                let trace = spans.scope(op, span_names[slot], Some(root), |spans, run| {
                    let (_, trace) = query.run_traced();
                    spans.add_phases(op, run, &trace.phases);
                    trace
                });
                hits += trace.index_cache_hits;
                misses += trace.index_cache_misses;
                plan_hits += usize::from(trace.plan_cache_hit);
            }
        });
        if (i + 1) % SYNC_EVERY == 0 {
            db.sync_wal().expect("sync_wal");
        }
    }
    rec.check(
        view.snapshot() == db.query(VIEW).expect("valid view"),
        || "maintained view drifted from recompute".to_owned(),
    );
    rec.set(
        "index.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    rec.set(
        "plan.cache_hit_rate",
        plan_hits as f64 / (2 * cycles) as f64,
    );
    rec.set("storage.dict_terms", sac::storage::dict::len() as f64);

    // engine: appends while a second thread loops a heavy query (the other
    // core), against the same appends alone.
    let append_samples = |deltas: &[Instance]| -> Vec<u64> {
        deltas
            .iter()
            .map(|delta| timed(|| db.extend_from(delta).expect("append")).0)
            .collect()
    };
    let heavy = db.prepare(HEAVY).expect("valid query");
    let solo_p50 = median_ns(&mut append_samples(solo));
    let stop = AtomicBool::new(false);
    let contended_p50 = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                std::hint::black_box(heavy.execute().len());
            }
        });
        let p50 = median_ns(&mut append_samples(contended));
        stop.store(true, Ordering::SeqCst);
        reader.join().expect("reader thread");
        p50
    });
    rec.set(
        "engine.append_wait_under_read_us",
        (contended_p50 - solo_p50) / 1e3,
    );

    let checkpoint = rec
        .spans
        .call(cycles as u32, "durability.checkpoint", None, || {
            db.checkpoint().expect("checkpoint")
        });
    rec.set("durability.checkpoint_ms", checkpoint.micros as f64 / 1e3);
    rec.set(
        "durability.snapshot_bytes_per_atom",
        checkpoint.bytes as f64 / checkpoint.atoms.max(1) as f64,
    );
    drop(heavy);
    drop(prepared);
    drop(view);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    // view: explicit refreshes of a non-auto view, per delta row.
    let manual = Database::from_instance(inputs.base.clone());
    let manual_view = manual
        .materialize_with(
            VIEW,
            ViewOptions {
                auto_refresh: false,
                ..ViewOptions::default()
            },
        )
        .expect("valid view");
    let (mut refresh_ns, mut delta_rows) = (0u64, 0usize);
    for delta in &main[..probe] {
        manual.extend_from(delta).expect("append");
        let (ns, report) = timed(|| manual_view.refresh());
        refresh_ns += ns;
        delta_rows += report.delta_rows;
    }
    rec.set(
        "view.refresh_us_per_delta_row",
        refresh_ns as f64 / 1e3 / delta_rows.max(1) as f64,
    );

    // index: what one batch costs the two single-column indexes.
    let mut grown = inputs.base.clone();
    let edge = sac::common::intern("E");
    let mut cache = IndexCache::new(&grown);
    cache.ensure(&grown, edge, &[0]);
    cache.ensure(&grown, edge, &[1]);
    let mut growth_ns: Vec<u64> = main[..probe]
        .iter()
        .map(|delta| {
            grown.extend_from(delta).expect("consistent arities");
            timed(|| cache.note_growth(&grown)).0
        })
        .collect();
    rec.set("index.note_growth_us", median_ns(&mut growth_ns) / 1e3);

    rec.summarize_spans(median_ns(&mut plain.cycle_ns));
}

pub fn trace_recover(ctx: &Ctx, rec: &mut Recorder) {
    let frames = ctx.size(300, 12);
    let opens = ctx.size(30, 3);
    let inputs = stream_inputs(ctx, frames);
    let twin = twin_of(&inputs, frames);
    let killed = fresh_dir(ctx, "recover-traced");
    build_killed_dir(&killed, &inputs, frames, true);
    // The same history without view and plans, and the same view and plans
    // without a WAL tail: what the rewarm and what the replay add.
    let bare = fresh_dir(ctx, "recover-traced-bare");
    build_killed_dir(&bare, &inputs, frames, false);
    let tailless = fresh_dir(ctx, "recover-traced-tailless");
    build_killed_dir(&tailless, &inputs, 0, true);

    let snapshot_ns = p50_ns_of(opens, || {
        sac::wal::latest_snapshot(&killed).expect("readable snapshot")
    });
    rec.set("wal.read_snapshot_ms", snapshot_ns / 1e6);

    let copy = fresh_dir(ctx, "recover-traced-copy");
    let fresh_copy = |from: &Path| {
        let _ = std::fs::remove_dir_all(&copy);
        copy_dir(from, &copy).expect("copy killed directory");
    };
    let (mut tail_ns, mut again_ns, mut replayed_rows) = (Vec::new(), Vec::new(), 0usize);
    for open in 0..opens {
        let op = open as u32;
        fresh_copy(&killed);
        rec.attempted += 1;
        let (ns, db) = timed(|| {
            rec.spans.scope(op, "request", None, |spans, root| {
                spans.call(op, "durability.open", Some(root), || {
                    Database::open_with(&copy, OPTIONS).expect("recover")
                })
            })
        });
        tail_ns.push(ns);
        if let Err(problem) = verify_recovered(&db, &twin, &inputs, frames) {
            rec.fail(|| format!("open {open}: {problem}"));
        }
        replayed_rows = db.recovery_report().map_or(0, |r| r.replayed_rows);
        drop(db);
        // The open above checkpointed: this one loads a snapshot, no tail.
        let (ns, db) = timed(|| Database::open_with(&copy, OPTIONS).expect("reopen"));
        again_ns.push(ns);
        rec.check(
            db.recovery_report()
                .is_some_and(|r| r.replayed_batches == 0),
            || "the reopen still found WAL frames".to_owned(),
        );
    }
    let open_p50 = |from: &Path| {
        let mut samples: Vec<u64> = (0..opens)
            .map(|_| {
                fresh_copy(from);
                timed(|| Database::open_with(&copy, OPTIONS).expect("recover").len()).0
            })
            .collect();
        median_ns(&mut samples)
    };
    let (bare_open, tailless_open) = (open_p50(&bare), open_p50(&tailless));
    let (tail, again) = (median_ns(&mut tail_ns), median_ns(&mut again_ns));
    rec.set("durability.open_tail_ms", tail / 1e6);
    rec.set("durability.open_snapshot_only_ms", again / 1e6);
    rec.set(
        "durability.replay_us_per_row",
        (tail - tailless_open) / 1e3 / replayed_rows.max(1) as f64,
    );
    rec.set("durability.replayed_rows", replayed_rows as f64);
    rec.set("view.rewarm_ms", (tail - bare_open) / 1e6);
    rec.set("storage.dict_terms", sac::storage::dict::len() as f64);
    rec.count("replayed_rows", replayed_rows);
    for dir in [&copy, &killed, &bare, &tailless] {
        let _ = std::fs::remove_dir_all(dir);
    }
    // The traced and the untraced request are the same single call.
    rec.summarize_spans(tail);
}
