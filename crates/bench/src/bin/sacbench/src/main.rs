//! `sacbench` — the repo's one end-to-end + per-layer benchmark.  See
//! `README.md` next to this package for the workloads, the metric names and
//! what is expected to move what.
//!
//! ```text
//! sacbench list
//! sacbench [run] --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
//! sacbench all   [--runs N] [--workload W] [--seed N] [--seconds S] [--out DIR] [--smoke]
//! sacbench trace [--runs N] [--workload W] …        (all, with --trace 1)
//! sacbench compare A.json B.json [--benchmark BENCHMARK.json]
//! sacbench spec                                      (prints BENCHMARK.json)
//! ```
//!
//! `run` prints a context line and then, as the last line of stdout, the
//! result object the benchmark contract asks for.  `all`/`trace` run every
//! workload in a process of its own and merge the result lines into one
//! result-set file that `compare` reads.

mod host;
mod json;
mod report;
mod span;
mod spec;
mod stats;
mod workloads;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Ctx, Recorder};

const FLUSH_POLICY: &str =
    "SyncMode::Never, snapshot_every 0, one sync_wal() per 32 batches issued between requests";
const LOAD_SHAPE: &str =
    "closed loop, 1 client thread, parallelism 1, fixed rounds x fixed request blocks";

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
    smoke: bool,
    runs: usize,
    benchmark: PathBuf,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 11,
        seconds: f64::from(spec::RUN_SECONDS),
        traced: false,
        out: host::default_out_dir(),
        smoke: false,
        runs: 1,
        benchmark: PathBuf::from("BENCHMARK.json"),
        positional: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let number = |name: &str, text: String| {
            text.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{name}: '{text}' is not a number"))
        };
        match arg.as_str() {
            "--workload" => options.workload = Some(value("--workload")?),
            "--seed" => options.seed = number("--seed", value("--seed")?)? as u64,
            "--seconds" => options.seconds = number("--seconds", value("--seconds")?)?,
            "--runs" => options.runs = (number("--runs", value("--runs")?)? as usize).max(1),
            "--trace" => {
                options.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => options.out = PathBuf::from(value("--out")?),
            "--benchmark" => options.benchmark = PathBuf::from(value("--benchmark")?),
            "--smoke" => options.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => options.positional.push(arg.clone()),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(word) if !word.starts_with("--") => (word, &args[1..]),
        // The driver's form: options only.
        _ => ("run", &args[..]),
    };
    let options = match parse_options(rest) {
        Ok(options) => options,
        Err(message) => return usage(&message),
    };
    match command {
        "list" => {
            for w in &spec::WORKLOADS {
                println!("{:<18} {}", w.name, w.why);
            }
            ExitCode::SUCCESS
        }
        "spec" => {
            print!("{}", spec::benchmark_json().render_pretty());
            ExitCode::SUCCESS
        }
        "run" => run(&options),
        "all" => all(&options, false),
        "trace" => all(&options, true),
        "compare" => compare(&options),
        other => usage(&format!("unknown command '{other}'")),
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("sacbench: {message}");
    eprintln!(
        "usage: sacbench list | spec | [run] --workload W [--seed N] [--seconds S] [--trace 0|1] \
         [--out DIR] [--smoke] | all|trace [--runs N] [--workload W] … | compare A.json B.json \
         [--benchmark FILE]"
    );
    ExitCode::from(2)
}

/// What every result says about where it came from.
fn header(options: &Options, rec: &Recorder) -> Json {
    let quiet = quiet_rounds(rec);
    let quiet_samples: usize = quiet.iter().map(|r| r.requests.len()).sum();
    Json::obj([
        ("git_rev", Json::str(host::git_rev())),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("profile", Json::str(env!("SACBENCH_PROFILE"))),
        ("opt_level", Json::str(env!("SACBENCH_OPT_LEVEL"))),
        ("debug_assertions", Json::Bool(cfg!(debug_assertions))),
        ("rustc", Json::str(env!("SACBENCH_RUSTC"))),
        ("seed", Json::Num(options.seed as f64)),
        ("seconds", Json::Num(options.seconds)),
        ("smoke", Json::Bool(options.smoke)),
        ("load_shape", Json::str(LOAD_SHAPE)),
        ("flush_policy", Json::str(FLUSH_POLICY)),
        ("request_samples", Json::Num(rec.request_ns.len() as f64)),
        ("setup_samples", Json::Num(rec.setup_ns.len() as f64)),
        ("quiet_request_samples", Json::Num(quiet_samples as f64)),
        // Not gated (they do not repeat on this host): the tail, and the
        // median over every round instead of the quiet ones.
        ("ungated", ungated(rec)),
        // Drift within the run shows here: one median per round, and which
        // rounds the timing metrics were taken from.
        (
            "round_p50_us",
            Json::Arr(
                rounds(rec)
                    .iter()
                    .map(|r| Json::Num((r.median_ns / 1e3).round()))
                    .collect(),
            ),
        ),
        (
            "quiet_rounds",
            Json::Arr(quiet.iter().map(|r| Json::Num(r.index as f64)).collect()),
        ),
    ])
}

fn ungated(rec: &Recorder) -> Json {
    if rec.request_ns.is_empty() {
        return Json::Null;
    }
    let mut all = rec.request_ns.clone();
    let tail = stats::tail_percentile(all.len());
    Json::obj([
        (
            "all_rounds_p50_us",
            Json::Num(stats::percentile_ns(&mut all, 50.0) / 1e3),
        ),
        // The highest percentile with at least ten samples beyond it.
        ("all_rounds_tail_percentile", Json::Num(tail)),
        (
            "all_rounds_tail_us",
            Json::Num(stats::percentile_ns(&mut all, tail) / 1e3),
        ),
    ])
}

struct Round {
    index: usize,
    /// Its requests, as a range of `Recorder::request_ns`.
    requests: std::ops::Range<usize>,
    median_ns: f64,
}

/// The rounds of a run that issued at least one request.
fn rounds(rec: &Recorder) -> Vec<Round> {
    let ends = rec
        .round_starts
        .iter()
        .skip(1)
        .copied()
        .chain([rec.request_ns.len()]);
    rec.round_starts
        .iter()
        .zip(ends)
        .enumerate()
        .filter(|(_, (start, end))| *start < end)
        .map(|(index, (start, end))| Round {
            index,
            requests: *start..end,
            median_ns: stats::median_ns(&mut rec.request_ns[*start..end].to_vec()),
        })
        .collect()
}

/// The third of the rounds with the lowest median latency.
///
/// This host is shared: for seconds at a time something else slows every
/// request by 10–40 %, and a run can spend more than half its rounds that
/// way, which moves even the median.  The disturbance is one-sided (it never
/// makes a request faster) and rounds do identical work, so the quietest
/// rounds say what the program costs and the rest say what the neighbours
/// were doing.  Every request is still attempted, verified and counted.
fn quiet_rounds(rec: &Recorder) -> Vec<Round> {
    let mut rounds = rounds(rec);
    rounds.sort_by(|a, b| a.median_ns.total_cmp(&b.median_ns));
    rounds.truncate(rounds.len().div_ceil(3));
    rounds
}

fn end_to_end(rec: &Recorder, peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
    let quiet = quiet_rounds(rec);
    let mut requests: Vec<u64> = quiet
        .iter()
        .flat_map(|r| &rec.request_ns[r.requests.clone()])
        .copied()
        .collect();
    let mut setups: Vec<u64> = quiet
        .iter()
        .filter_map(|r| rec.setup_ns.get(r.index))
        .copied()
        .collect();
    let value = |name: &str, requests: &mut [u64], setups: &mut [u64]| -> f64 {
        // An empty sample only happens when every round died before its
        // first request; the run is reported incorrect either way.
        if requests.is_empty() || setups.is_empty() {
            return 0.0;
        }
        match name {
            "request_p50_us" => stats::percentile_ns(requests, 50.0) / 1e3,
            "requests_per_s" => requests.len() as f64 / (requests.iter().sum::<u64>() as f64 / 1e9),
            "peak_rss_mb" => peak_rss_mb,
            "setup_s" => stats::median_ns(setups) / 1e9,
            other => unreachable!("end-to-end metric {other} has no definition"),
        }
    };
    spec::END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name, &mut requests, &mut setups)))
        .collect()
}

fn run(options: &Options) -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!(
            "sacbench: built with debug assertions; refusing to report (build with --release)"
        );
        return ExitCode::from(2);
    }
    let Some(name) = options.workload.as_deref() else {
        return usage("run needs --workload (see `sacbench list`)");
    };
    if let Err(e) = std::fs::create_dir_all(&options.out) {
        eprintln!("sacbench: cannot create {}: {e}", options.out.display());
        return ExitCode::from(2);
    }
    let scratch = options
        .out
        .join(format!("scratch-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("sacbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: options.seed,
        seconds: options.seconds,
        smoke: options.smoke,
        scratch: scratch.clone(),
    };
    let outcome = workloads::run(name, &ctx, options.traced);
    let _ = std::fs::remove_dir_all(&scratch);
    let Some(rec) = outcome else {
        return usage(&format!("unknown workload '{name}' (see `sacbench list`)"));
    };

    let metrics: Vec<(&'static str, f64)> = if options.traced {
        spec::PER_LAYER
            .iter()
            .map(|m| (m.name, rec.layer.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let peak_rss_mb = rec.peak_rss_mb.or_else(host::peak_rss_mb).unwrap_or(0.0);
        end_to_end(&rec, peak_rss_mb)
    };
    let correct = rec.failed == 0
        && rec.attempted > 0
        && metrics.iter().all(|(_, v)| v.is_finite())
        && (options.traced || metrics.iter().all(|(_, v)| *v > 0.0));
    let metrics_json = Json::obj(metrics.iter().map(|(name, value)| {
        (
            *name,
            Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::str(spec::unit_of(name))),
            ]),
        )
    }));
    let context = Json::obj([
        ("workload", Json::str(name)),
        ("trace", Json::Num(f64::from(u8::from(options.traced)))),
        ("header", header(options, &rec)),
        (
            "counts",
            Json::obj(rec.counts.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
        ),
        (
            "digests",
            Json::obj(
                rec.digests
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::str(v.clone()))),
            ),
        ),
        (
            "failures",
            Json::Arr(rec.failures.iter().map(|f| Json::str(f.clone())).collect()),
        ),
    ]);
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(rec.attempted as f64)),
        ("failed", Json::Num(rec.failed.min(rec.attempted) as f64)),
        ("metrics", metrics_json),
    ]);

    let tag = format!("{name}.trace{}", u8::from(options.traced));
    let file = Json::obj([("context", context.clone()), ("result", result.clone())]);
    let written = std::fs::write(
        options.out.join(format!("{tag}.json")),
        file.render_pretty(),
    )
    .and_then(|()| {
        if options.traced {
            rec.spans
                .write_jsonl(&options.out.join(format!("{name}.spans.jsonl")))
        } else {
            Ok(())
        }
    });
    if let Err(e) = written {
        eprintln!(
            "sacbench: cannot write under {}: {e}",
            options.out.display()
        );
    }
    for failure in &rec.failures {
        eprintln!("sacbench: {name}: FAILED: {failure}");
    }
    println!("{}", context.render());
    println!("{}", result.render());
    ExitCode::SUCCESS
}

/// Runs `name` once in a process of its own and returns its context and
/// result lines.  The child is waited for before this returns.
fn run_child(
    options: &Options,
    name: &str,
    seed: u64,
    traced: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .arg("run")
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&options.out)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if options.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{name}: child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().ok_or("no result line")?)?;
    let context = Json::parse(lines.next().ok_or("no context line")?)?;
    Ok((context, result))
}

fn all(options: &Options, traced: bool) -> ExitCode {
    let names: Vec<&str> = spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| options.workload.as_deref().is_none_or(|only| only == *name))
        .collect();
    if names.is_empty() {
        return usage("no such workload (see `sacbench list`)");
    }
    let mut header = Json::Null;
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for name in names {
        let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
        let (mut attempted, mut failed) = (Vec::new(), Vec::new());
        let (mut counts, mut digests) = (Json::Null, Json::Null);
        for run in 0..options.runs {
            let seed = options.seed + run as u64;
            let (context, result) = match run_child(options, name, seed, traced) {
                Ok(lines) => lines,
                Err(message) => {
                    eprintln!("sacbench: {message}");
                    return ExitCode::FAILURE;
                }
            };
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
            attempted.push(result.get("attempted").cloned().unwrap_or(Json::Null));
            failed.push(result.get("failed").cloned().unwrap_or(Json::Null));
            for (metric, entry) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                let value = entry
                    .get("value")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
                match values.iter_mut().find(|(m, _, _)| m == metric) {
                    Some((_, _, list)) => list.push(value),
                    None => values.push((metric.clone(), unit.to_owned(), vec![value])),
                }
            }
            if run == 0 {
                // Counts and digests are per seed; keep the base seed's.
                counts = context.get("counts").cloned().unwrap_or(Json::Null);
                digests = context.get("digests").cloned().unwrap_or(Json::Null);
                if header == Json::Null {
                    header = context.get("header").cloned().unwrap_or(Json::Null);
                }
            }
            let shown = values
                .iter()
                .take(3)
                .map(|(m, u, list)| format!("{m} {:.4} {u}", list[list.len() - 1]))
                .collect::<Vec<_>>()
                .join(", ");
            eprintln!("sacbench: {name} run {} (seed {seed}): {shown}", run + 1);
        }
        let metrics = Json::obj(values.into_iter().map(|(metric, unit, list)| {
            (
                metric,
                Json::obj([
                    ("unit", Json::str(unit)),
                    ("median", Json::Num(stats::median_f64(&list))),
                    ("spread", stats::spread(&list).map_or(Json::Null, Json::Num)),
                    (
                        "values",
                        Json::Arr(list.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            )
        }));
        workloads.push((
            name,
            Json::obj([
                ("attempted", Json::Arr(attempted)),
                ("failed", Json::Arr(failed)),
                ("metrics", metrics),
                ("counts", counts),
                ("digests", digests),
            ]),
        ));
    }
    let set = Json::obj([
        ("header", header),
        ("trace", Json::Num(f64::from(u8::from(traced)))),
        ("runs", Json::Num(options.runs as f64)),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = options
        .out
        .join(format!("results.trace{}.json", u8::from(traced)));
    if let Err(e) = std::fs::write(&path, set.render_pretty()) {
        eprintln!("sacbench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    print!("{}", set.render_pretty());
    eprintln!("sacbench: wrote {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare(options: &Options) -> ExitCode {
    let [a, b] = options.positional.as_slice() else {
        return usage("compare takes two result-set files");
    };
    let loaded = read_json(Path::new(a)).and_then(|a| {
        let b = read_json(Path::new(b))?;
        Ok((a, b, read_json(&options.benchmark)?))
    });
    match loaded {
        Ok((a, b, benchmark)) => {
            let bad = report::compare(&a, &b, &benchmark);
            if bad == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("sacbench: {bad} row(s) worse or differing");
                ExitCode::FAILURE
            }
        }
        Err(message) => usage(&message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_metrics_come_from_the_quietest_third_of_the_rounds() {
        let mut rec = Recorder::default();
        // Six rounds of four requests; rounds 1 and 4 ran undisturbed.
        for (round, level_us) in [300u64, 100, 250, 400, 110, 500].into_iter().enumerate() {
            rec.round_starts.push(rec.request_ns.len());
            rec.setup_ns.push(1_000 * (round as u64 + 1));
            rec.request_ns
                .extend((0..4).map(|jitter| level_us * 1_000 + jitter));
        }
        let quiet: Vec<usize> = quiet_rounds(&rec).iter().map(|r| r.index).collect();
        assert_eq!(quiet, vec![1, 4]);

        let metrics = end_to_end(&rec, 7.0);
        let value = |name: &str| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(value("request_p50_us"), 100.003);
        assert_eq!(value("peak_rss_mb"), 7.0);
        assert_eq!(value("setup_s"), 2e-6, "median set-up of rounds 1 and 4");
        let pooled_s = (4.0 * 100_000.0 + 4.0 * 110_000.0 + 12.0) / 1e9;
        assert!((value("requests_per_s") - 8.0 / pooled_s).abs() < 1e-6);
    }

    #[test]
    fn a_run_without_requests_reports_zeroes_not_a_panic() {
        let rec = Recorder::default();
        assert!(quiet_rounds(&rec).is_empty());
        assert!(end_to_end(&rec, 1.0)
            .iter()
            .all(|(name, v)| *v == 0.0 || *name == "peak_rss_mb"));
    }

    #[test]
    fn the_driver_form_and_the_sub_command_form_parse_alike() {
        let args = |text: &str| -> Vec<String> { text.split(' ').map(str::to_owned).collect() };
        let options =
            parse_options(&args("--workload decide --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(options.workload.as_deref(), Some("decide"));
        assert_eq!(
            (options.seed, options.seconds, options.traced),
            (7, 2.5, true)
        );
        assert!(parse_options(&args("--trace 2")).is_err());
        assert!(parse_options(&args("--seed")).is_err());
        assert!(parse_options(&args("--bogus 1")).is_err());
    }
}
