//! Per-run query traces: execution phases, the boundary-mark [`Probe`]
//! that attributes wall time to them, and the [`QueryTrace`] a traced run
//! returns.
//!
//! Timing discipline: a probe holds the timestamp of the last phase
//! boundary, and [`Probe::mark`] charges everything elapsed since that
//! boundary to the named phase.  Phases are therefore contiguous by
//! construction — their sum equals the span from probe creation to the
//! last mark, so the trace's per-phase times always account for its total
//! without a fudge bucket.
//!
//! Trace *structure* (strategy, cache outcomes, per-node row counts,
//! answer count) is deterministic across runs on the same database;
//! [`QueryTrace::structure_digest`] hashes exactly that subset so
//! differential suites can diff it while wall times vary freely.

use std::fmt;
use std::time::{Duration, Instant};

use crate::histogram::fmt_ns;

/// One execution phase of a traced run.
///
/// The Yannakakis rungs pass through `Plan → Snapshot → MatchSets →
/// SemijoinUp → SemijoinDown → JoinBack → Decode`; the indexed-search rung
/// replaces the middle with a single `Search` phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Plan-cache lookup plus planning on a miss.
    Plan,
    /// Index cache snapshot under the cache lock.
    Snapshot,
    /// Phase 1: building the per-node match sets.
    MatchSets,
    /// Phase 2a: the upward (leaf-to-root) semijoin sweep.
    SemijoinUp,
    /// Phase 2b: the downward (root-to-leaf) semijoin sweep.
    SemijoinDown,
    /// Phase 3: the output-bounded join-back-up.
    JoinBack,
    /// The indexed-search rung's backtracking enumeration.
    Search,
    /// Dictionary decode plus result-set materialization.
    Decode,
}

impl Phase {
    /// Every phase, in canonical pipeline order.
    pub const ALL: [Phase; 8] = [
        Phase::Plan,
        Phase::Snapshot,
        Phase::MatchSets,
        Phase::SemijoinUp,
        Phase::SemijoinDown,
        Phase::JoinBack,
        Phase::Search,
        Phase::Decode,
    ];

    /// The phase's stable snake_case name (used in JSON keys and digests).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::Snapshot => "snapshot",
            Phase::MatchSets => "match_sets",
            Phase::SemijoinUp => "semijoin_up",
            Phase::SemijoinDown => "semijoin_down",
            Phase::JoinBack => "join_back",
            Phase::Search => "search",
            Phase::Decode => "decode",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Nanoseconds attributed to each [`Phase`] of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    ns: [u64; Phase::ALL.len()],
}

impl PhaseTimes {
    /// Adds `ns` nanoseconds to `phase`.
    pub fn add(&mut self, phase: Phase, ns: u64) {
        self.ns[phase.index()] += ns;
    }

    /// Nanoseconds attributed to `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.ns[phase.index()]
    }

    /// Sum over all phases.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// The phases that received any time, in pipeline order.
    pub fn nonzero(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL
            .into_iter()
            .map(|p| (p, self.get(p)))
            .filter(|&(_, ns)| ns > 0)
    }
}

impl fmt::Display for PhaseTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (phase, ns) in self.nonzero() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{phase} {}", fmt_ns(ns))?;
        }
        if first {
            write!(f, "no phases")?;
        }
        Ok(())
    }
}

/// Row counts through one join-tree node: match-set size after phase 1
/// (`rows_in`) and after both semijoin sweeps (`rows_out`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRows {
    /// The node's atom, in display form (predicate plus argument shape).
    pub node: String,
    /// Match-set rows entering the semijoin sweeps.
    pub rows_in: usize,
    /// Match-set rows surviving both sweeps.
    pub rows_out: usize,
}

/// Collects phase boundaries and per-node row counts during one run.
///
/// Created when the run starts; [`Probe::mark`] charges the time since the
/// previous boundary to the finished phase.  Marking the same phase twice
/// accumulates (the decode phase, for example, spans the executor's
/// dictionary decode and the caller's result materialization).
#[derive(Debug)]
pub struct Probe {
    started: Instant,
    last_boundary: Instant,
    phases: PhaseTimes,
    nodes: Vec<NodeRows>,
}

impl Probe {
    /// Starts a probe; the first `mark` charges from this moment.
    pub fn start() -> Probe {
        let now = Instant::now();
        Probe {
            started: now,
            last_boundary: now,
            phases: PhaseTimes::default(),
            nodes: Vec::new(),
        }
    }

    /// Ends `phase`: charges it everything since the previous boundary.
    pub fn mark(&mut self, phase: Phase) {
        let now = Instant::now();
        let ns = now.duration_since(self.last_boundary).as_nanos();
        self.phases
            .add(phase, u64::try_from(ns).unwrap_or(u64::MAX));
        self.last_boundary = now;
    }

    /// Records one join-tree node's rows in/out.
    pub fn node(&mut self, node: impl Into<String>, rows_in: usize, rows_out: usize) {
        self.nodes.push(NodeRows {
            node: node.into(),
            rows_in,
            rows_out,
        });
    }

    /// Wall time since the probe started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Consumes the probe into its phase times, node rows, and the total
    /// span from start to the last boundary (which equals the phase sum).
    pub fn finish(self) -> (PhaseTimes, Vec<NodeRows>, u64) {
        let total = self.last_boundary.duration_since(self.started).as_nanos();
        (
            self.phases,
            self.nodes,
            u64::try_from(total).unwrap_or(u64::MAX),
        )
    }
}

/// Everything one traced run observed about itself.
///
/// Produced by `Database::run_traced` / `PreparedQuery::run_traced` (and
/// `MaterializedView::refresh_traced`, which also fills the view fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTrace {
    /// The query, in display form.
    pub query: String,
    /// The strategy rung the planner chose (`yannakakis-direct`,
    /// `yannakakis-witness`, or `indexed-search`).
    pub strategy: String,
    /// Whether the plan came out of the plan cache.
    pub plan_cache_hit: bool,
    /// Cached indexes reused by this run.
    pub index_cache_hits: usize,
    /// Indexes this run had to build.
    pub index_cache_misses: usize,
    /// Wall time attributed to each execution phase.
    pub phases: PhaseTimes,
    /// Total recorded latency in nanoseconds (phase sum tracks this).
    pub total_ns: u64,
    /// Rows in/out per join-tree node (empty on the indexed rung).
    pub node_rows: Vec<NodeRows>,
    /// Answer rows returned.
    pub answers: usize,
    /// For view refreshes: the refresh mode (`fresh`, `incremental`,
    /// `full`).
    pub refresh_mode: Option<String>,
    /// For view refreshes: delta rows pushed through the plan.
    pub delta_rows: Option<usize>,
}

impl QueryTrace {
    /// FNV-1a over the run's *structural* fields — everything above except
    /// wall times — which is identical across repeated runs on the same
    /// database and configuration.  Differential suites digest this.
    pub fn structure_digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut absorb = |text: &str| {
            for byte in text.bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        absorb(&self.query);
        absorb(&self.strategy);
        absorb(if self.plan_cache_hit { "|hit" } else { "|miss" });
        absorb(&format!(
            "|ix {}+{}",
            self.index_cache_hits, self.index_cache_misses
        ));
        for n in &self.node_rows {
            absorb(&format!("|{} {}->{}", n.node, n.rows_in, n.rows_out));
        }
        absorb(&format!("|answers {}", self.answers));
        if let (Some(mode), Some(delta)) = (&self.refresh_mode, self.delta_rows) {
            absorb(&format!("|{mode} {delta}"));
        }
        hash
    }
}

impl fmt::Display for QueryTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} via {} in {}: plan {}, {} cached + {} built indexes; {}",
            self.query,
            self.strategy,
            fmt_ns(self.total_ns),
            if self.plan_cache_hit {
                "cache hit"
            } else {
                "cache miss"
            },
            self.index_cache_hits,
            self.index_cache_misses,
            self.phases,
        )?;
        for n in &self.node_rows {
            write!(f, "; {} {}→{}", n.node, n.rows_in, n.rows_out)?;
        }
        if let (Some(mode), Some(delta)) = (&self.refresh_mode, self.delta_rows) {
            write!(f, "; refresh {mode} ({delta} delta rows)")?;
        }
        write!(f, "; {} answers", self.answers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> QueryTrace {
        let mut phases = PhaseTimes::default();
        phases.add(Phase::Plan, 1_000);
        phases.add(Phase::MatchSets, 5_000);
        phases.add(Phase::Decode, 2_000);
        QueryTrace {
            query: "Ans() :- E(x, y)".to_owned(),
            strategy: "yannakakis-direct".to_owned(),
            plan_cache_hit: true,
            index_cache_hits: 2,
            index_cache_misses: 1,
            phases,
            total_ns: 8_000,
            node_rows: vec![NodeRows {
                node: "E(x, y)".to_owned(),
                rows_in: 10,
                rows_out: 7,
            }],
            answers: 7,
            refresh_mode: None,
            delta_rows: None,
        }
    }

    #[test]
    fn probe_phases_sum_to_its_total() {
        let mut probe = Probe::start();
        std::thread::sleep(Duration::from_millis(2));
        probe.mark(Phase::Plan);
        std::thread::sleep(Duration::from_millis(2));
        probe.mark(Phase::MatchSets);
        probe.node("E(x, y)", 5, 3);
        let (phases, nodes, total) = probe.finish();
        assert_eq!(phases.total_ns(), total, "phases are contiguous");
        assert!(phases.get(Phase::Plan) >= 1_000_000);
        assert!(phases.get(Phase::MatchSets) >= 1_000_000);
        assert_eq!(phases.get(Phase::Search), 0);
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].rows_out, 3);
    }

    #[test]
    fn repeated_marks_accumulate() {
        let mut probe = Probe::start();
        probe.mark(Phase::Decode);
        probe.mark(Phase::Decode);
        let (phases, _, total) = probe.finish();
        assert_eq!(phases.total_ns(), total);
        assert_eq!(phases.get(Phase::Decode), total);
    }

    #[test]
    fn phase_names_and_order_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.as_str()).collect();
        assert_eq!(
            names,
            [
                "plan",
                "snapshot",
                "match_sets",
                "semijoin_up",
                "semijoin_down",
                "join_back",
                "search",
                "decode"
            ]
        );
        assert_eq!(Phase::SemijoinUp.to_string(), "semijoin_up");
    }

    #[test]
    fn structure_digest_ignores_wall_times() {
        let a = sample_trace();
        let mut b = sample_trace();
        b.phases = PhaseTimes::default();
        b.phases.add(Phase::Plan, 999_999);
        b.total_ns = 1;
        assert_eq!(a.structure_digest(), b.structure_digest());
        let mut c = sample_trace();
        c.answers = 8;
        assert_ne!(a.structure_digest(), c.structure_digest());
        let mut d = sample_trace();
        d.plan_cache_hit = false;
        assert_ne!(a.structure_digest(), d.structure_digest());
    }

    #[test]
    fn display_reads_like_a_report() {
        let text = sample_trace().to_string();
        assert!(text.contains("yannakakis-direct"), "{text}");
        assert!(text.contains("cache hit"), "{text}");
        assert!(text.contains("match_sets"), "{text}");
        assert!(text.contains("E(x, y) 10→7"), "{text}");
        assert!(text.contains("7 answers"), "{text}");
        let mut viewy = sample_trace();
        viewy.refresh_mode = Some("incremental".to_owned());
        viewy.delta_rows = Some(12);
        assert!(viewy.to_string().contains("refresh incremental"));
    }
}
