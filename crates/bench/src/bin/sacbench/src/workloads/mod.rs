//! The eight workloads and what they share: the run context, the recorder
//! every workload writes its samples, failures, digests and per-layer
//! numbers into, and the round loop.
//!
//! **Load shape.**  Closed loop, one client thread, intra-query
//! parallelism 1.  A run is a fixed number of *rounds*; a round sets the
//! workload up from scratch (timed: one `setup_s` sample) and then issues a
//! fixed block of requests (timed one by one).  Round and block counts are
//! fixed per workload and scale only with `--seconds`, so the work of a run
//! repeats exactly and is the same on both sides of any comparison.

pub mod cold_text;
pub mod datalog;
pub mod decide;
pub mod durable;
pub mod serve;

use crate::span::SpanLog;
use crate::spec;
use crate::stats::{digest_rows, elapsed_ns, timed};
use sac::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Where durable workloads put their database directories.
    pub scratch: PathBuf,
}

impl Ctx {
    /// Rounds for a workload sized at `per_run` rounds per `RUN_SECONDS`.
    pub fn rounds(&self, per_run: usize) -> usize {
        if self.smoke {
            return 2;
        }
        let scaled = per_run as f64 * self.seconds / f64::from(spec::RUN_SECONDS);
        (scaled.round() as usize).max(1)
    }

    /// `full` normally, `tiny` under `--smoke`.
    pub fn size(&self, full: usize, tiny: usize) -> usize {
        if self.smoke {
            tiny
        } else {
            full
        }
    }
}

#[derive(Default)]
pub struct Recorder {
    pub setup_ns: Vec<u64>,
    pub request_ns: Vec<u64>,
    /// Index into `request_ns` at which each round began.
    pub round_starts: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    /// `VmHWM` when the last round ended.
    pub peak_rss_mb: Option<f64>,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
    /// Output digests, so two runs can be diffed.
    pub digests: BTreeMap<String, String>,
    /// Exact counts (op counts, rows, frames): must repeat run to run.
    pub counts: BTreeMap<String, f64>,
    /// Per-layer metrics of a traced run.
    pub layer: BTreeMap<&'static str, f64>,
    pub spans: SpanLog,
}

impl Recorder {
    /// Counts one failed operation.
    pub fn fail(&mut self, message: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message());
        }
    }

    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message);
        }
    }

    /// Issues one request: counts it, times `f`, keeps the latency sample.
    /// An `Err` is a failed operation (its latency still counts).
    pub fn request<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let (ns, result) = timed(f);
        self.request_ns.push(ns);
        match result {
            Ok(value) => Some(value),
            Err(message) => {
                self.fail(|| message);
                None
            }
        }
    }

    /// Keeps the time since `start` as one `setup_s` sample.
    pub fn setup_done(&mut self, start: Instant) {
        self.setup_ns.push(elapsed_ns(start));
    }

    pub fn set(&mut self, metric: &'static str, value: f64) {
        debug_assert!(!spec::unit_of(metric).is_empty());
        self.layer.insert(metric, value);
    }

    pub fn count(&mut self, name: &str, value: usize) {
        self.counts.insert(name.to_owned(), value as f64);
    }

    pub fn digest(&mut self, name: &str, digest: String) {
        self.digests.insert(name.to_owned(), digest);
    }

    /// Fills the `trace.*` metrics from the span log: coverage against the
    /// untraced median of the same request, and self time by layer family.
    pub fn summarize_spans(&mut self, untraced_p50_ns: f64) {
        let accounted = self.spans.accounted_median_ns();
        self.set("trace.coverage", accounted / untraced_p50_ns.max(1.0));
        self.set("trace.untraced_p50_us", untraced_p50_ns / 1e3);
        self.set("trace.spans", self.spans.len() as f64);
        let mut families: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, ns) in self.spans.layer_self_medians() {
            let family = match name.split('.').next().unwrap_or("") {
                "parser" => "trace.self_us.parser",
                "storage" => "trace.self_us.storage",
                "plan" => "trace.self_us.plan",
                "exec" | "result" => "trace.self_us.exec",
                _ => "trace.self_us.other",
            };
            *families.entry(family).or_default() += ns / 1e3;
        }
        for (family, us) in families {
            self.set(family, us);
        }
    }
}

/// Runs `rounds` rounds of `planned` requests each.  A panic inside a round
/// fails the requests the round had not yet completed instead of taking
/// the run down: a result line with `failed > 0` is more use than none.
pub fn run_rounds(
    rec: &mut Recorder,
    rounds: usize,
    planned: usize,
    mut round: impl FnMut(usize, &mut Recorder),
) {
    for index in 0..rounds {
        rec.round_starts.push(rec.request_ns.len());
        let before = rec.attempted;
        let outcome = catch_unwind(AssertUnwindSafe(|| round(index, rec)));
        if let Err(payload) = outcome {
            let done = rec.attempted - before;
            let lost = (planned as u64).saturating_sub(done).max(1);
            rec.attempted += lost;
            rec.failed += lost - 1;
            let what = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic")
                .to_owned();
            rec.fail(|| format!("round {index} panicked: {what}"));
        }
    }
    // The high-water mark of the measured rounds, before the workload's
    // closing verification (oracles, naive fixpoints) allocates on top.
    rec.peak_rss_mb = crate::host::peak_rss_mb();
}

pub fn run(name: &str, ctx: &Ctx, traced: bool) -> Option<Recorder> {
    let mut rec = Recorder::default();
    match (name, traced) {
        ("serve_acyclic", false) => serve::run(&serve::acyclic_inputs(ctx), ctx, &mut rec),
        ("serve_acyclic", true) => serve::trace(&serve::acyclic_inputs(ctx), ctx, &mut rec),
        ("serve_semac", false) => serve::run(&serve::semac_inputs(ctx), ctx, &mut rec),
        ("serve_semac", true) => serve::trace(&serve::semac_inputs(ctx), ctx, &mut rec),
        ("cold_text", false) => cold_text::run(ctx, &mut rec),
        ("cold_text", true) => cold_text::trace(ctx, &mut rec),
        ("ingest", false) => durable::run_ingest(ctx, &mut rec),
        ("ingest", true) => durable::trace_ingest(ctx, &mut rec),
        ("recover", false) => durable::run_recover(ctx, &mut rec),
        ("recover", true) => durable::trace_recover(ctx, &mut rec),
        ("datalog_run", false) => datalog::run_eval(ctx, &mut rec),
        ("datalog_run", true) => datalog::trace_eval(ctx, &mut rec),
        ("certificate_check", false) => datalog::run_check(ctx, &mut rec),
        ("certificate_check", true) => datalog::trace_check(ctx, &mut rec),
        ("decide", false) => decide::run(ctx, &mut rec),
        ("decide", true) => decide::trace(ctx, &mut rec),
        _ => return None,
    }
    Some(rec)
}

/// One answer row as text, constants stripped of `prefix` (cold requests
/// rename every constant; the oracle knows the unprefixed names).
fn row_text(values: &[Term], prefix: &str) -> String {
    let mut text = String::new();
    for (i, term) in values.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        let rendered = term.to_string();
        text.push_str(rendered.strip_prefix(prefix).unwrap_or(&rendered));
    }
    text
}

/// Row count and order-independent digest of an engine answer.
pub fn digest_result(result: &ResultSet, prefix: &str) -> (usize, String) {
    let rows: Vec<String> = result.tuples().map(|t| row_text(t, prefix)).collect();
    (rows.len(), digest_rows(rows))
}

/// The same for the independent oracle, `sac::query::evaluate`.
pub fn digest_oracle(query: &ConjunctiveQuery, instance: &Instance) -> (usize, String) {
    let rows: Vec<String> = evaluate(query, instance)
        .iter()
        .map(|t| row_text(t, ""))
        .collect();
    (rows.len(), digest_rows(rows))
}

/// Order-independent digest of a set of atoms.
pub fn digest_atoms(atoms: impl IntoIterator<Item = impl std::borrow::Borrow<Atom>>) -> String {
    digest_rows(
        atoms
            .into_iter()
            .map(|atom| atom.borrow().to_string())
            .collect(),
    )
}

/// The nodes of the binary relation `E`, those whose out- and in-degree are
/// closest to `degree` first (ties in `n0, n1, …` order): anchoring queries
/// at a node of fixed degree keeps their work the same from seed to seed.
pub fn anchor_nodes(instance: &Instance, degree: usize) -> Vec<String> {
    let mut degrees: BTreeMap<Term, (usize, usize)> = BTreeMap::new();
    for atom in instance.atoms().filter(|a| a.predicate.as_str() == "E") {
        degrees.entry(atom.args[0]).or_default().0 += 1;
        degrees.entry(atom.args[1]).or_default().1 += 1;
    }
    let mut nodes: Vec<(usize, usize, String)> = degrees
        .into_iter()
        .map(|(node, (out, inn))| {
            let name = node.to_string();
            let ordinal = name[1..].parse().unwrap_or(usize::MAX);
            (out.abs_diff(degree) + inn.abs_diff(degree), ordinal, name)
        })
        .collect();
    nodes.sort();
    nodes.into_iter().map(|(_, _, name)| name).collect()
}

pub fn anchor_node(instance: &Instance, degree: usize) -> String {
    anchor_nodes(instance, degree).swap_remove(0)
}

/// Reads every term of every row, as a client consuming its answer would.
pub fn read_rows(result: &ResultSet) -> usize {
    let mut constants = 0usize;
    for row in result.rows() {
        for term in row.values() {
            constants += usize::from(term.is_constant());
        }
    }
    constants
}

/// `index.build_us`: median time to build, in a fresh `IndexCache`, every
/// single-column index of every relation of `instance`.
pub fn index_build_ns(instance: &Instance, reps: usize) -> f64 {
    let columns: Vec<(sac::common::Symbol, usize)> = instance
        .predicates()
        .flat_map(|p| (0..instance.relation(p).map_or(0, |r| r.arity())).map(move |c| (p, c)))
        .collect();
    crate::stats::p50_ns_of(reps, || {
        let mut cache = IndexCache::new(instance);
        for (predicate, column) in &columns {
            cache.ensure(instance, *predicate, &[*column]);
        }
        cache.len()
    })
}

/// Median phase times over a set of traces, as `exec.*_ns` metrics summed
/// into `totals` (callers average over shapes).
pub fn add_phase_medians(totals: &mut BTreeMap<&'static str, f64>, traces: &[QueryTrace]) {
    const PHASES: [(Phase, &str); 8] = [
        (Phase::Plan, "exec.plan_ns"),
        (Phase::Snapshot, "exec.snapshot_ns"),
        (Phase::MatchSets, "exec.match_sets_ns"),
        (Phase::SemijoinUp, "exec.semijoin_up_ns"),
        (Phase::SemijoinDown, "exec.semijoin_down_ns"),
        (Phase::JoinBack, "exec.join_back_ns"),
        (Phase::Search, "exec.search_ns"),
        (Phase::Decode, "exec.decode_ns"),
    ];
    for (phase, metric) in PHASES {
        let mut samples: Vec<u64> = traces.iter().map(|t| t.phases.get(phase)).collect();
        *totals.entry(metric).or_default() += crate::stats::median_ns(&mut samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_ctx(tag: &str) -> Ctx {
        let scratch =
            std::env::temp_dir().join(format!("sacbench-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).unwrap();
        Ctx {
            seed: 11,
            seconds: 1.0,
            smoke: true,
            scratch,
        }
    }

    /// Every workload, untraced and traced, at smoke sizes: all the
    /// verification still runs and nothing may fail.
    fn smoke(name: &str) {
        let ctx = smoke_ctx(name);
        let untraced = run(name, &ctx, false).expect("known workload");
        assert!(untraced.attempted > 0, "{name}");
        assert_eq!(untraced.failed, 0, "{name}: {:?}", untraced.failures);
        // `recover` also attempts one torn-tail recovery per round, unsampled.
        assert!(
            untraced.request_ns.len() as u64 <= untraced.attempted,
            "{name}"
        );
        assert!(!untraced.request_ns.is_empty(), "{name}");
        assert!(
            !untraced.setup_ns.is_empty() && !untraced.digests.is_empty(),
            "{name}"
        );

        let traced = run(name, &ctx, true).expect("known workload");
        assert_eq!(traced.failed, 0, "{name}: {:?}", traced.failures);
        assert!(traced.spans.len() > 0, "{name} records spans");
        assert!(traced.layer["trace.coverage"] > 0.0, "{name}");
        for metric in traced.layer.keys() {
            assert!(!spec::unit_of(metric).is_empty());
        }

        // Same seed, same inputs: digests and exact counts repeat.  Byte and
        // dictionary counts repeat only from process to process: dictionary
        // codes (and so the WAL's varints) depend on what the process
        // encoded before, and the tests share one process.
        let again = run(name, &ctx, false).expect("known workload");
        let portable = |rec: &Recorder| -> Vec<(String, f64)> {
            rec.counts
                .iter()
                .filter(|(k, _)| !k.contains("bytes") && !k.contains("dict_terms"))
                .map(|(k, v)| (k.clone(), *v))
                .collect()
        };
        assert_eq!(again.digests, untraced.digests, "{name}");
        assert_eq!(portable(&again), portable(&untraced), "{name}");
        let _ = std::fs::remove_dir_all(&ctx.scratch);
    }

    #[test]
    fn smoke_serve_acyclic() {
        smoke("serve_acyclic");
    }

    #[test]
    fn smoke_serve_semac() {
        smoke("serve_semac");
    }

    #[test]
    fn smoke_cold_text() {
        smoke("cold_text");
    }

    #[test]
    fn smoke_ingest() {
        smoke("ingest");
    }

    #[test]
    fn smoke_recover() {
        smoke("recover");
    }

    #[test]
    fn smoke_datalog_run() {
        smoke("datalog_run");
    }

    #[test]
    fn smoke_certificate_check() {
        smoke("certificate_check");
    }

    #[test]
    fn smoke_decide() {
        smoke("decide");
    }

    #[test]
    fn a_different_seed_gives_different_inputs() {
        let mut ctx = smoke_ctx("seeds");
        let one = run("serve_acyclic", &ctx, false).unwrap();
        ctx.seed = 12;
        let two = run("serve_acyclic", &ctx, false).unwrap();
        assert_ne!(one.digests, two.digests);
    }

    #[test]
    fn a_panicking_round_fails_its_requests_and_the_run_goes_on() {
        let mut rec = Recorder::default();
        run_rounds(&mut rec, 2, 3, |round, rec| {
            rec.request(|| Ok::<_, String>(()));
            if round == 0 {
                panic!("boom");
            }
            rec.request(|| Ok::<_, String>(()));
            rec.request(|| Err::<(), _>("bad answer".to_owned()));
        });
        assert_eq!(rec.attempted, 6);
        assert_eq!(rec.failed, 3, "{:?}", rec.failures);
        assert!(rec.failures[0].contains("boom"));
    }

    #[test]
    fn anchors_have_the_requested_degree() {
        let graph = sac::gen::random_graph_database(200, 1000, 3);
        let anchor = anchor_node(&graph, 5);
        let node = Term::constant(&anchor);
        let out = graph.atoms().filter(|a| a.args[0] == node).count();
        let inn = graph.atoms().filter(|a| a.args[1] == node).count();
        assert_eq!(
            (out, inn),
            (5, 5),
            "200 nodes of mean degree 5 include a (5,5) node"
        );
    }
}
