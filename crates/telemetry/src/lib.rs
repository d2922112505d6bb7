//! `sac-telemetry` — observability primitives for the execution engine.
//!
//! Two std-only building blocks, deliberately free of engine types so any
//! layer can depend on them:
//!
//! * **[`Histogram`]** — lock-free log-bucketed latency histograms
//!   (atomic buckets, `p50`/`p90`/`p99` via [`HistogramSnapshot`]) for
//!   run / prepare / view-refresh / Datalog latencies.
//! * **[`Probe`] / [`QueryTrace`]** — per-run phase timers with a
//!   contiguous boundary-mark discipline (phase times always sum to the
//!   traced span) plus per-join-tree-node row counts, surfaced by the
//!   engine as `run_traced`.
//!
//! ```
//! use sac_telemetry::{Phase, Probe};
//!
//! let mut probe = Probe::start();
//! // ... plan the query ...
//! probe.mark(Phase::Plan);
//! // ... execute ...
//! probe.mark(Phase::Decode);
//! let (phases, _nodes, total_ns) = probe.finish();
//! assert_eq!(phases.total_ns(), total_ns);
//! ```

mod histogram;
mod trace;

pub use histogram::{fmt_ns, Histogram, HistogramSnapshot};
pub use trace::{NodeRows, Phase, PhaseTimes, Probe, QueryTrace};
