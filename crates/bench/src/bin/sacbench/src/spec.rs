//! The names this benchmark defines: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics.  `BENCHMARK.json` at the
//! repo root is `sacbench spec` verbatim (a unit test holds the two
//! together), so later changes claim against one list.

use crate::json::Json;

pub const RUN_SECONDS: u32 = 10;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/sacbench/Cargo.toml",
    "--",
];

pub const PATHS: [&str; 1] = ["crates/bench/src/bin/sacbench"];

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 8] = [
    WorkloadSpec {
        name: "serve_acyclic",
        why: "prepared acyclic queries with tiny outputs on a cached graph: per-query fixed cost and the match-set/semijoin sweeps dominate, output materialisation does not",
    },
    WorkloadSpec {
        name: "serve_semac",
        why: "the paper's Example 1 triangle under the collector tgd, full 32k-row output: join_back and decode are nearly all of it, fixed overhead nil; the mirror of serve_acyclic",
    },
    WorkloadSpec {
        name: "cold_text",
        why: "fact text with a fresh vocabulary per request, then three query texts: parser, dictionary misses, storage insert, index build and cold planning do the work, the warm executor little",
    },
    WorkloadSpec {
        name: "ingest",
        why: "50-row batches into a durable database with an auto-refresh view, two indexed point queries per batch: writes beside reads on the same storage and index layers",
    },
    WorkloadSpec {
        name: "recover",
        why: "Database::open on a killed directory (snapshot plus a 300-frame WAL tail): snapshot load, replay, view and plan rewarm, re-baselining checkpoint; no query path",
    },
    WorkloadSpec {
        name: "datalog_run",
        why: "recursive reachability with certificates through the semi-naive evaluator: engine.datalog does the work, the CQ serve path none",
    },
    WorkloadSpec {
        name: "certificate_check",
        why: "engine-independent replay of a positive program's certificate: only the datalog checker runs, so a soundness fix for negation must leave it flat",
    },
    WorkloadSpec {
        name: "decide",
        why: "a fixed suite of (query, constraints) decisions over every decidable class, positive and negative: the paper's deciders with storage and executor bypassed",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these (the benchmark contract), so
/// they are named after the request, and each workload's README row says
/// what its request is.  The timing metrics are taken from the quietest
/// third of a run's rounds (`main.rs`, `quiet_rounds`).
///
/// The bounds come from the seed-commit sets in `baseline/`, and they are
/// wide because this host is not quiet.  The same binary on the same seed
/// ran `decide` at 34.5 ms early in the session and at 42–45 ms two hours
/// later; within a run, rounds of identical work differ by 10–40 % for
/// seconds at a time; whole runs are sometimes 50 % slow.  Over six ten-seed
/// sets the interquartile spread of `request_p50_us` and `requests_per_s`
/// was 4–12 % on most workloads and up to 25 % on `datalog_run` in a bad
/// quarter of an hour, and medians of back-to-back sets differed by up to
/// 13 %.  A tail percentile could not be held to 25 % at all (p95 spreads of
/// 37–86 % in one set) and is reported, ungated, in the context line — the
/// demotion ISSUE 11 prescribes.  Finer claims than these bounds allow need
/// paired, alternating runs (`sacbench compare` on sets taken back to back).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "request_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "requests_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics.  A traced run prints all of them; a workload that
/// bypasses a layer prints 0 for it (that is the "should not move" side).
pub const PER_LAYER: [PerLayer; 92] = [
    layer("parser.parse_database_us", "us", "lower"),
    layer("parser.fact_bytes_per_s", "B/s", "higher"),
    layer("parser.parse_query_us", "us", "lower"),
    layer("storage.dict_encode_miss_ns", "ns", "lower"),
    layer("storage.dict_encode_hit_ns", "ns", "lower"),
    layer("storage.insert_ns_per_row", "ns", "lower"),
    layer("storage.heap_bytes_per_row", "B", "lower"),
    layer("storage.dict_terms", "count", "lower"),
    layer("index.build_us", "us", "lower"),
    layer("index.note_growth_us", "us", "lower"),
    layer("index.cache_hit_rate", "ratio", "higher"),
    layer("plan.cold_prepare_direct_us", "us", "lower"),
    layer("plan.cold_prepare_witness_us", "us", "lower"),
    layer("plan.cold_prepare_search_us", "us", "lower"),
    layer("plan.cache_hit_rate", "ratio", "higher"),
    layer("exec.plan_ns", "ns", "lower"),
    layer("exec.snapshot_ns", "ns", "lower"),
    layer("exec.match_sets_ns", "ns", "lower"),
    layer("exec.semijoin_up_ns", "ns", "lower"),
    layer("exec.semijoin_down_ns", "ns", "lower"),
    layer("exec.join_back_ns", "ns", "lower"),
    layer("exec.search_ns", "ns", "lower"),
    layer("exec.decode_ns", "ns", "lower"),
    layer("exec.phase_sum_vs_total", "ratio", "higher"),
    layer("exec.rows_in_per_answer", "ratio", "lower"),
    layer("exec.fixed_overhead_ns", "ns", "lower"),
    layer("exec.shape_p50_us.star3_bool", "us", "lower"),
    layer("exec.shape_p50_us.path4_bool", "us", "lower"),
    layer("exec.shape_p50_us.path2_anchored", "us", "lower"),
    layer("exec.shape_p50_us.star_anchored", "us", "lower"),
    layer("exec.shape_p50_us.semac_full", "us", "lower"),
    layer("exec.shape_p50_us.semac_bound", "us", "lower"),
    layer("exec.shape_p50_us.cold_path2", "us", "lower"),
    layer("exec.shape_p50_us.cold_witness", "us", "lower"),
    layer("exec.shape_p50_us.cold_triangle", "us", "lower"),
    layer("exec.shape_p50_us.ingest_star", "us", "lower"),
    layer("exec.shape_p50_us.ingest_inbound", "us", "lower"),
    layer("result.iterate_ns_per_row", "ns", "lower"),
    layer("result.boolean_vs_full_ratio", "ratio", "lower"),
    layer("telemetry.traced_overhead_pct", "%", "lower"),
    layer("view.refresh_us_per_delta_row", "us", "lower"),
    layer("view.incremental_share", "ratio", "higher"),
    layer("view.rewarm_ms", "ms", "lower"),
    layer("ingest.append_p50_us", "us", "lower"),
    layer("ingest.append_p95_us", "us", "lower"),
    layer("ingest.append_rows_per_s", "1/s", "higher"),
    layer("ingest.query_p50_us", "us", "lower"),
    layer("engine.append_wait_under_read_us", "us", "lower"),
    layer("wal.frame_us", "us", "lower"),
    layer("wal.fsync_p50_us", "us", "lower"),
    layer("wal.bytes_per_row", "B", "lower"),
    layer("wal.frames", "count", "lower"),
    layer("wal.stored_bytes_per_row", "B", "lower"),
    layer("wal.read_snapshot_ms", "ms", "lower"),
    layer("durability.checkpoint_ms", "ms", "lower"),
    layer("durability.snapshot_bytes_per_atom", "B", "lower"),
    layer("durability.open_tail_ms", "ms", "lower"),
    layer("durability.open_snapshot_only_ms", "ms", "lower"),
    layer("durability.replay_us_per_row", "us", "lower"),
    layer("durability.replayed_rows", "count", "lower"),
    layer("datalog.iterations", "count", "lower"),
    layer("datalog.facts_derived", "count", "higher"),
    layer("datalog.derived_facts_per_s", "1/s", "higher"),
    layer("datalog.run_p50_ms", "ms", "lower"),
    layer("datalog.certificate_overhead_ratio", "ratio", "lower"),
    layer("datalog.seminaive_vs_naive_ratio", "ratio", "lower"),
    layer("datalog.certificate_steps", "count", "lower"),
    layer("datalog.check_p50_ms", "ms", "lower"),
    layer("datalog.check_us_per_fact_positive", "us", "lower"),
    layer("datalog.check_us_per_fact_negation", "us", "lower"),
    layer("core.decide_guarded_ms", "ms", "lower"),
    layer("core.decide_nonrecursive_ms", "ms", "lower"),
    layer("core.decide_sticky_ms", "ms", "lower"),
    layer("core.decide_keys_ms", "ms", "lower"),
    layer("core.decide_unconstrained_ms", "ms", "lower"),
    layer("core.approximations_ms", "ms", "lower"),
    layer("chase.tgd_chase_ms", "ms", "lower"),
    layer("rewrite.xrewrite_ms", "ms", "lower"),
    layer("query.core_of_ms", "ms", "lower"),
    layer("query.containment_ms", "ms", "lower"),
    layer("acyclic.gyo_us", "us", "lower"),
    layer("pool.p2_speedup", "ratio", "higher"),
    layer("pool.queue_wait_us", "us", "lower"),
    layer("pool.morsel_steals", "count", "higher"),
    layer("trace.coverage", "ratio", "higher"),
    layer("trace.spans", "count", "lower"),
    layer("trace.untraced_p50_us", "us", "lower"),
    layer("trace.self_us.parser", "us", "lower"),
    layer("trace.self_us.storage", "us", "lower"),
    layer("trace.self_us.plan", "us", "lower"),
    layer("trace.self_us.exec", "us", "lower"),
    layer("trace.self_us.other", "us", "lower"),
];

/// The document committed as `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == metric)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == metric).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric {metric} is not declared in spec.rs"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn the_spec_is_inside_the_contract_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        for m in &END_TO_END {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32);
        assert!(benchmark_json().render_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with `sacbench spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn release_profile_matches_the_workspace() {
        // Profiles are read from the root of the workspace being built, and
        // this package is its own root: its [profile.release] is a copy.
        let section = |manifest: &str| -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.trim().to_owned())
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        };
        let root = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../../../../Cargo.toml"
        ))
        .expect("workspace manifest");
        let own = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
            .expect("own manifest");
        assert!(!section(&root).is_empty());
        assert_eq!(section(&own), section(&root));
    }
}
