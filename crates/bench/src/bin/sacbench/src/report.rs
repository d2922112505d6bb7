//! Result sets and `sacbench compare`.
//!
//! A result set (written by `sacbench all` / `sacbench trace`) holds, per
//! workload and metric, the value of every run made.  `compare` reads two
//! of them and the bounds in `BENCHMARK.json` and prints one row per
//! (workload, metric): both medians, their ratio with its base, and for
//! end-to-end metrics a verdict —
//!
//! * `ok`: the second median is not worse than the first by more than the
//!   metric's bound;
//! * `worse`: it is;
//! * `unresolved`: the run-to-run spread of either side (interquartile
//!   distance over median) is wider than the bound, so the runs cannot tell
//!   — unless every run of the second side beats every run of the first.
//!
//! Per-layer metrics have no bound and get no verdict.  Exact counts and
//! digests must be identical when both sets used the same seeds.

use crate::json::Json;
use crate::stats::{median_f64, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the runs `b` against the runs `a` (the base) for one metric.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (base, other) = (median_f64(a), median_f64(b));
    // Positive when `b` is worse, as a share of the base.
    let worse_by = if lower_is_better {
        (other - base) / base.abs()
    } else {
        (base - other) / base.abs()
    };
    let widest = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    if widest > bound {
        let b_always_better = a.iter().all(|x| {
            b.iter()
                .all(|y| if lower_is_better { y < x } else { y > x })
        });
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn values_of(metric: &Json) -> Vec<f64> {
    metric
        .get("values")
        .and_then(Json::as_arr)
        .map(|values| values.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// `(name, lower_is_better, bound)` of every end-to-end metric in a
/// `BENCHMARK.json` document.
fn bounds_of(benchmark: &Json) -> Vec<(String, bool, f64)> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

fn seeds_of(set: &Json) -> Option<(f64, f64)> {
    let header = set.get("header")?;
    Some((header.get("seed")?.as_f64()?, set.get("runs")?.as_f64()?))
}

/// Prints the comparison table; returns how many rows are `worse` (or
/// differ where they must be identical).
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> usize {
    let bounds = bounds_of(benchmark);
    let same_seeds = seeds_of(a).is_some() && seeds_of(a) == seeds_of(b);
    let mut bad = 0usize;
    println!(
        "{:<18} {:<36} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    let empty: &[(String, Json)] = &[];
    let workloads = a.get("workloads").and_then(Json::as_obj).unwrap_or(empty);
    for (workload, in_a) in workloads {
        let Some(in_b) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<18} missing from b");
            continue;
        };
        let metrics = in_a.get("metrics").and_then(Json::as_obj).unwrap_or(empty);
        for (name, metric_a) in metrics {
            let Some(metric_b) = in_b.get("metrics").and_then(|m| m.get(name)) else {
                continue;
            };
            let (va, vb) = (values_of(metric_a), values_of(metric_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median_f64(&va), median_f64(&vb));
            let ratio = if ma == 0.0 { f64::NAN } else { mb / ma };
            let (bound, verdict) = match bounds.iter().find(|(n, _, _)| n == name) {
                Some((_, lower, bound)) => {
                    let verdict = judge(&va, &vb, *lower, *bound);
                    bad += usize::from(verdict == Verdict::Worse);
                    (format!("{:.0}%", bound * 100.0), verdict.as_str())
                }
                None => ("-".to_owned(), "-"),
            };
            println!(
                "{workload:<18} {name:<36} {ma:>14.4} {mb:>14.4} {ratio:>9.3} {bound:>7}  {verdict}"
            );
        }
        if same_seeds {
            for section in ["counts", "digests"] {
                let same = in_a.get(section) == in_b.get(section);
                bad += usize::from(!same);
                println!(
                    "{workload:<18} {:<36} {:>14} {:>14} {:>9} {:>7}  {}",
                    format!("exact {section}"),
                    "",
                    "",
                    "",
                    "-",
                    if same { "same" } else { "differs" }
                );
            }
        }
    }
    if !same_seeds {
        println!("(exact counts and digests not compared: the two sets used different seeds)");
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_steady_regression_beyond_the_bound_is_worse() {
        let a = [100.0, 101.0, 99.0, 100.5, 100.0];
        let b = [115.0, 116.0, 114.0, 115.5, 115.0];
        assert_eq!(judge(&a, &b, true, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &b, true, 0.20), Verdict::Ok);
        // For a higher-is-better metric the same numbers are a gain.
        assert_eq!(judge(&a, &b, false, 0.10), Verdict::Ok);
        assert_eq!(judge(&b, &a, false, 0.10), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = [100.0, 140.0, 80.0, 120.0, 90.0];
        let b = [100.0, 150.0, 70.0, 125.0, 95.0];
        assert_eq!(judge(&a, &b, true, 0.10), Verdict::Unresolved);
        // …unless every run of b beats every run of a.
        let better = [60.0, 70.0, 50.0, 65.0, 55.0];
        assert_eq!(judge(&a, &better, true, 0.10), Verdict::Ok);
    }

    #[test]
    fn single_runs_compare_by_their_values() {
        assert_eq!(judge(&[10.0], &[10.5], true, 0.10), Verdict::Ok);
        assert_eq!(judge(&[10.0], &[12.0], true, 0.10), Verdict::Worse);
    }

    fn set(seed: f64, p50: &[f64], digest: &str) -> Json {
        Json::obj([
            ("header", Json::obj([("seed", Json::Num(seed))])),
            ("runs", Json::Num(p50.len() as f64)),
            (
                "workloads",
                Json::obj([(
                    "decide",
                    Json::obj([
                        (
                            "metrics",
                            Json::obj([(
                                "request_p50_us",
                                Json::obj([(
                                    "values",
                                    Json::Arr(p50.iter().map(|v| Json::Num(*v)).collect()),
                                )]),
                            )]),
                        ),
                        ("counts", Json::obj([("cases", Json::Num(16.0))])),
                        ("digests", Json::obj([("decisions", Json::str(digest))])),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_counts_worse_rows_and_exact_mismatches() {
        let benchmark = crate::spec::benchmark_json();
        let base = set(11.0, &[100.0, 101.0, 99.0], "abc");
        assert_eq!(
            compare(&base, &set(11.0, &[102.0, 100.0, 101.0], "abc"), &benchmark),
            0
        );
        assert_eq!(
            compare(&base, &set(11.0, &[130.0, 131.0, 129.0], "abc"), &benchmark),
            1
        );
        assert_eq!(
            compare(&base, &set(11.0, &[100.0, 101.0, 99.0], "xyz"), &benchmark),
            1
        );
        // Different seeds: digests are not expected to match.
        assert_eq!(
            compare(&base, &set(12.0, &[100.0, 101.0, 99.0], "xyz"), &benchmark),
            0
        );
    }
}
