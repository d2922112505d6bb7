//! # sac-bench
//!
//! Criterion benchmark harness reproducing every figure/example experiment of
//! the paper (see README.md, "Benches", for the index and
//! EXPERIMENTS.md for recorded results).  Shared helpers live here; each
//! `benches/eN_*.rs` target regenerates one experiment, and the
//! `complexity_table` / `experiment_report` binaries print the summary tables.
//!
//! ## Machine-readable results
//!
//! The engine-facing benches (`e11`–`e14`) support a `--json` flag
//! (`cargo bench --bench e11_engine_vs_naive -- --json`): instead of the
//! criterion rows they run a compact self-timed sweep and write a
//! `BENCH_eNN.json` file at the workspace root (and echo it to stdout), so
//! the bench trajectory can be recorded and diffed across commits.
//! `e13_parallel_speedup` and `e14_view_maintenance` always write their
//! JSON — they *are* the machine-readable experiments; `e14`'s numbers are
//! gated by a per-batch differential check (maintained view == recompute).

use criterion::Criterion;
use std::path::PathBuf;
use std::time::Instant;

/// A Criterion configuration small enough that the full suite completes in a
/// few minutes while still producing stable medians (the experiments compare
/// growth shapes, not nanosecond-level effects).
pub fn quick_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(600))
}

/// Whether the bench binary was invoked with the given flag
/// (`cargo bench --bench <name> -- <flag>`).
pub fn flag(name: &str) -> bool {
    std::env::args().any(|arg| arg == name)
}

/// Whether the bench binary was invoked with `--json`
/// (`cargo bench --bench <name> -- --json`).
pub fn json_flag() -> bool {
    flag("--json")
}

/// A path at the workspace root (where `BENCH_*.json` files live).
pub fn workspace_path(file_name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file_name)
}

/// Writes `contents` to `file_name` at the workspace root and returns the
/// path written.
pub fn write_workspace_file(file_name: &str, contents: &str) -> PathBuf {
    let path = workspace_path(file_name);
    std::fs::write(&path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    path
}

/// Median wall-clock seconds of `samples` runs of `routine` (one warm-up
/// run first).  The self-timed twin of the criterion rows, for `--json`
/// sweeps.
pub fn median_secs<F: FnMut()>(samples: usize, mut routine: F) -> f64 {
    assert!(samples > 0, "need at least one sample");
    routine(); // warm-up
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            routine();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    times[times.len() / 2]
}

/// Renders `rows` (already-serialized JSON objects) as a JSON document with
/// a `bench` name, flat metadata fields and a `results` array.  The
/// workspace vendors no serde, so the writers hand-assemble their rows with
/// [`json_object`].
pub fn json_document(bench: &str, metadata: &[(&str, String)], rows: &[String]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"bench\": \"{bench}\",\n"));
    for (key, value) in metadata {
        out.push_str(&format!("  \"{key}\": {value},\n"));
    }
    out.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!("    {row}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders one flat JSON object from `(key, already-serialized value)`
/// pairs.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_document_is_well_formed() {
        let rows = vec![
            json_object(&[("a", "1".into()), ("b", "2.5".into())]),
            json_object(&[("a", "2".into())]),
        ];
        let doc = json_document("e99_test", &[("cores", "1".into())], &rows);
        assert!(doc.contains("\"bench\": \"e99_test\""));
        assert!(doc.contains("\"cores\": 1,"));
        assert!(doc.contains("{\"a\": 1, \"b\": 2.5},"));
        assert!(doc.ends_with("  ]\n}\n"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn median_is_taken_over_the_samples() {
        let mut calls = 0;
        let secs = median_secs(5, || calls += 1);
        assert_eq!(calls, 6, "five samples plus one warm-up");
        assert!(secs >= 0.0);
    }

    #[test]
    fn workspace_path_points_at_the_repo_root() {
        let path = workspace_path("Cargo.lock");
        assert!(path.exists(), "{} should exist", path.display());
    }
}
