//! Bench-side tracing: one span per call the benchmark makes into a layer.
//!
//! Spans are recorded in memory and written as JSON lines when the run ends.
//! A span names the request it belongs to (`op_id`) and the span that caused
//! it (`parent`, an index into the log).  A layer's **self time** is its
//! span minus the part its children cover; summing self times over the
//! non-root spans of a request says how much of the request the layers
//! account for (`trace.coverage`).

use crate::stats::median_ns;
use sac::telemetry::{Phase, PhaseTimes};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub op_id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a new span; `f` receives the log (to record children)
    /// and the new span's index (to name as their parent).
    pub fn scope<R>(
        &mut self,
        op_id: u32,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce(&mut SpanLog, u32) -> R,
    ) -> R {
        let index = u32::try_from(self.spans.len()).expect("span log overflow");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op_id,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        let result = f(self, index);
        self.spans[index as usize].end_ns = self.now_ns();
        result
    }

    /// A leaf span around one call into a layer.
    pub fn call<R>(
        &mut self,
        op_id: u32,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        self.scope(op_id, name, parent, |_, _| f())
    }

    pub fn duration_ns(&self, index: u32) -> u64 {
        let span = &self.spans[index as usize];
        span.end_ns - span.start_ns
    }

    /// Lays the phase partition of a `run_traced` call out as consecutive
    /// child spans of `parent`, starting where the parent starts.  The
    /// phases partition the engine's own total by construction; whatever
    /// the parent has beyond their sum stays its self time.
    pub fn add_phases(&mut self, op_id: u32, parent: u32, phases: &PhaseTimes) {
        let mut cursor = self.spans[parent as usize].start_ns;
        for (phase, ns) in phases.nonzero() {
            self.spans.push(Span {
                op_id,
                name: phase_span_name(phase),
                start_ns: cursor,
                end_ns: cursor + ns,
                parent: Some(parent),
            });
            cursor += ns;
        }
    }

    /// Median duration of the spans called `name` (0 when there are none).
    pub fn median_duration_ns(&self, name: &str) -> f64 {
        let mut samples: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        if samples.is_empty() {
            return 0.0;
        }
        median_ns(&mut samples)
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let child = span.end_ns - span.start_ns;
                own[parent as usize] = own[parent as usize].saturating_sub(child);
            }
        }
        own
    }

    /// Per span name: the median over requests of the self time the
    /// request spent under that name.  Root spans (no parent) are the
    /// bench's own request frames and are left out.
    pub fn layer_self_medians(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_times();
        let mut per_op: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
        for (span, own_ns) in self.spans.iter().zip(&own) {
            if span.parent.is_some() {
                *per_op.entry((span.name, span.op_id)).or_default() += own_ns;
            }
        }
        let mut per_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for ((name, _), ns) in per_op {
            per_name.entry(name).or_default().push(ns);
        }
        per_name
            .into_iter()
            .map(|(name, mut samples)| (name, median_ns(&mut samples)))
            .collect()
    }

    /// Median over requests of the time the request's non-root spans
    /// account for (the numerator of `trace.coverage`).
    pub fn accounted_median_ns(&self) -> f64 {
        let own = self.self_times();
        let mut per_op: BTreeMap<u32, u64> = BTreeMap::new();
        for (span, own_ns) in self.spans.iter().zip(&own) {
            if span.parent.is_some() {
                *per_op.entry(span.op_id).or_default() += own_ns;
            }
        }
        let mut samples: Vec<u64> = per_op.into_values().collect();
        if samples.is_empty() {
            return 0.0;
        }
        median_ns(&mut samples)
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                span.op_id, span.name, span.start_ns, span.end_ns, parent
            )?;
        }
        out.flush()
    }
}

fn phase_span_name(phase: Phase) -> &'static str {
    match phase {
        Phase::Plan => "exec.plan",
        Phase::Snapshot => "exec.snapshot",
        Phase::MatchSets => "exec.match_sets",
        Phase::SemijoinUp => "exec.semijoin_up",
        Phase::SemijoinDown => "exec.semijoin_down",
        Phase::JoinBack => "exec.join_back",
        Phase::Search => "exec.search",
        Phase::Decode => "exec.decode",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op_id: u32, name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            op_id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    fn log(spans: Vec<Span>) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let log = log(vec![
            span(0, "request", 0, 100, None),
            span(0, "parser.parse", 0, 30, Some(0)),
            span(0, "exec.run", 30, 90, Some(0)),
            span(0, "exec.decode", 30, 50, Some(2)),
            span(0, "exec.join_back", 50, 85, Some(2)),
        ]);
        assert_eq!(log.self_times(), vec![10, 30, 5, 20, 35]);
        // Everything but the root's own 10 ns is accounted to a layer.
        assert_eq!(log.accounted_median_ns(), 90.0);
        let layers = log.layer_self_medians();
        assert_eq!(layers["exec.run"], 5.0);
        assert_eq!(layers["exec.join_back"], 35.0);
        assert!(!layers.contains_key("request"));
    }

    #[test]
    fn medians_are_taken_over_requests_not_spans() {
        // Request 1 calls the parser twice; its parser time is the sum.
        let log = log(vec![
            span(0, "request", 0, 50, None),
            span(0, "parser.parse", 0, 10, Some(0)),
            span(1, "request", 100, 200, None),
            span(1, "parser.parse", 100, 120, Some(2)),
            span(1, "parser.parse", 120, 150, Some(2)),
            span(2, "request", 300, 400, None),
            span(2, "parser.parse", 300, 330, Some(5)),
        ]);
        assert_eq!(log.layer_self_medians()["parser.parse"], 30.0);
        assert_eq!(log.accounted_median_ns(), 30.0);
    }

    #[test]
    fn phases_become_consecutive_children() {
        let mut phases = PhaseTimes::default();
        phases.add(Phase::MatchSets, 40);
        phases.add(Phase::Decode, 25);
        let mut log = log(vec![span(3, "exec.run", 1_000, 1_070, None)]);
        log.add_phases(3, 0, &phases);
        assert_eq!(log.len(), 3);
        assert_eq!(
            log.spans[1],
            span(3, "exec.match_sets", 1_000, 1_040, Some(0))
        );
        assert_eq!(log.spans[2], span(3, "exec.decode", 1_040, 1_065, Some(0)));
        assert_eq!(log.self_times()[0], 5);
    }

    #[test]
    fn scopes_nest_and_close() {
        let mut log = SpanLog::default();
        let answer = log.scope(9, "request", None, |log, root| {
            log.call(9, "parser.parse", Some(root), || 41) + 1
        });
        assert_eq!(answer, 42);
        assert_eq!(log.spans[1].parent, Some(0));
        assert!(log.spans[0].end_ns >= log.spans[1].end_ns);
        assert!(log.duration_ns(0) >= log.duration_ns(1));
    }
}
