//! Engine events and pluggable sinks.
//!
//! The engine's subsystems (executor, batch fan-out, index cache, view
//! registry) emit [`Event`]s through a process-global [`bus`] rather than
//! holding a reference to any backend.  The bus costs one relaxed atomic
//! load when no sink is installed — the event value is never even
//! constructed — so instrumentation is effectively free in production
//! paths and only pays when an observer opts in.
//!
//! Two sinks ship in the box: [`RingSink`] (a bounded in-memory ring, the
//! default for tests and interactive debugging) and [`JsonLinesSink`]
//! (one JSON object per line onto any writer, for benches and offline
//! analysis).

use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One observation emitted by an engine subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The planner built (and cached) a plan on a cache miss.
    PlanBuilt {
        /// The query, in display form.
        query: String,
        /// The strategy rung chosen.
        strategy: String,
        /// Planning wall time in microseconds.
        micros: u64,
    },
    /// One query run finished.
    RunCompleted {
        /// The strategy rung executed.
        strategy: String,
        /// Answer rows returned.
        answers: usize,
        /// Run wall time in microseconds.
        micros: u64,
    },
    /// One Datalog fixpoint evaluation finished.
    DatalogCompleted {
        /// Rules in the evaluated program.
        rules: usize,
        /// Strata the program stratified into.
        strata: usize,
        /// Semi-naive iterations across all strata.
        iterations: usize,
        /// New facts derived on top of the base instance.
        facts_derived: usize,
        /// Derivation steps recorded in the certificate (0 when
        /// certificates were not requested).
        certificate_steps: usize,
        /// Evaluation wall time in microseconds.
        micros: u64,
    },
    /// The index cache materialized a join index on a miss.
    IndexBuilt {
        /// Relation the index covers.
        predicate: String,
        /// The indexed column positions.
        positions: Vec<usize>,
    },
    /// A batch fanned its queries out over helper threads.
    ParallelRegion {
        /// Work items in the region (one per batch query).
        tasks: usize,
        /// Helper threads spawned for this region and joined at its end
        /// (the calling thread works too, so effective width is
        /// `threads + 1`).
        threads: usize,
    },
    /// A materialized view was registered with the database.
    ViewRegistered {
        /// The standing query, in display form.
        query: String,
        /// The strategy rung its plan sits on.
        strategy: String,
    },
    /// A materialized view was brought up to date.
    ViewRefreshed {
        /// The refresh mode (`fresh`, `incremental`, `full`).
        mode: String,
        /// Delta rows pushed through the plan (incremental mode).
        delta_rows: usize,
        /// Net new answer rows.
        rows_added: usize,
        /// Refresh wall time in microseconds.
        micros: u64,
    },
    /// A durable database appended one fact batch to its write-ahead log.
    WalAppended {
        /// The batch's WAL sequence number.
        seq: u64,
        /// Framed bytes written (header + body).
        bytes: u64,
        /// Fact rows the batch carries.
        rows: usize,
    },
    /// A durable database wrote a compacted snapshot and reset its WAL.
    SnapshotWritten {
        /// Last WAL sequence number the snapshot covers.
        seq: u64,
        /// Snapshot file size in bytes.
        bytes: u64,
        /// Atoms the snapshot holds.
        atoms: usize,
        /// Checkpoint wall time in microseconds.
        micros: u64,
    },
    /// Crash recovery reopened a durable database from disk.
    RecoveryCompleted {
        /// WAL records replayed on top of the snapshot.
        replayed_batches: usize,
        /// Fact rows those records carried.
        replayed_rows: usize,
        /// Materialized views re-registered and refreshed.
        views: usize,
        /// Plans warmed back into the plan cache.
        plans: usize,
        /// Recovery wall time in microseconds.
        micros: u64,
    },
}

impl Event {
    /// The event's stable snake_case kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::PlanBuilt { .. } => "plan_built",
            Event::RunCompleted { .. } => "run_completed",
            Event::DatalogCompleted { .. } => "datalog_completed",
            Event::IndexBuilt { .. } => "index_built",
            Event::ParallelRegion { .. } => "parallel_region",
            Event::ViewRegistered { .. } => "view_registered",
            Event::ViewRefreshed { .. } => "view_refreshed",
            Event::WalAppended { .. } => "wal_appended",
            Event::SnapshotWritten { .. } => "snapshot_written",
            Event::RecoveryCompleted { .. } => "recovery_completed",
        }
    }

    /// The event as one self-contained JSON object.
    pub fn to_json(&self) -> String {
        match self {
            Event::PlanBuilt {
                query,
                strategy,
                micros,
            } => format!(
                "{{\"event\":\"plan_built\",\"query\":{},\"strategy\":{},\"micros\":{micros}}}",
                json_string(query),
                json_string(strategy)
            ),
            Event::RunCompleted {
                strategy,
                answers,
                micros,
            } => format!(
                "{{\"event\":\"run_completed\",\"strategy\":{},\"answers\":{answers},\"micros\":{micros}}}",
                json_string(strategy)
            ),
            Event::DatalogCompleted {
                rules,
                strata,
                iterations,
                facts_derived,
                certificate_steps,
                micros,
            } => format!(
                "{{\"event\":\"datalog_completed\",\"rules\":{rules},\"strata\":{strata},\"iterations\":{iterations},\"facts_derived\":{facts_derived},\"certificate_steps\":{certificate_steps},\"micros\":{micros}}}"
            ),
            Event::IndexBuilt {
                predicate,
                positions,
            } => {
                let cols: Vec<String> = positions.iter().map(|p| p.to_string()).collect();
                format!(
                    "{{\"event\":\"index_built\",\"predicate\":{},\"positions\":[{}]}}",
                    json_string(predicate),
                    cols.join(",")
                )
            }
            Event::ParallelRegion { tasks, threads } => format!(
                "{{\"event\":\"parallel_region\",\"tasks\":{tasks},\"threads\":{threads}}}"
            ),
            Event::ViewRegistered { query, strategy } => format!(
                "{{\"event\":\"view_registered\",\"query\":{},\"strategy\":{}}}",
                json_string(query),
                json_string(strategy)
            ),
            Event::ViewRefreshed {
                mode,
                delta_rows,
                rows_added,
                micros,
            } => format!(
                "{{\"event\":\"view_refreshed\",\"mode\":{},\"delta_rows\":{delta_rows},\"rows_added\":{rows_added},\"micros\":{micros}}}",
                json_string(mode)
            ),
            Event::WalAppended { seq, bytes, rows } => format!(
                "{{\"event\":\"wal_appended\",\"seq\":{seq},\"bytes\":{bytes},\"rows\":{rows}}}"
            ),
            Event::SnapshotWritten {
                seq,
                bytes,
                atoms,
                micros,
            } => format!(
                "{{\"event\":\"snapshot_written\",\"seq\":{seq},\"bytes\":{bytes},\"atoms\":{atoms},\"micros\":{micros}}}"
            ),
            Event::RecoveryCompleted {
                replayed_batches,
                replayed_rows,
                views,
                plans,
                micros,
            } => format!(
                "{{\"event\":\"recovery_completed\",\"replayed_batches\":{replayed_batches},\"replayed_rows\":{replayed_rows},\"views\":{views},\"plans\":{plans},\"micros\":{micros}}}"
            ),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// Quotes and escapes `text` as a JSON string literal.
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A backend that receives engine events.
///
/// Implementations must tolerate concurrent calls: events arrive from
/// whichever thread produced them, including fan-out helpers.
pub trait EventSink: Send + Sync {
    /// Receives one event.  Must not block for long — it runs inline on
    /// engine threads.
    fn record(&self, event: &Event);
}

/// The default sink: a bounded in-memory ring that keeps the most recent
/// events and drops the oldest on overflow.
///
/// ```
/// use sac_telemetry::{Event, EventSink, RingSink};
///
/// let sink = RingSink::with_capacity(2);
/// for tasks in 1..=3 {
///     sink.record(&Event::ParallelRegion { tasks, threads: 1 });
/// }
/// let kept = sink.drain();
/// assert_eq!(kept.len(), 2); // the oldest of the three was dropped
/// assert_eq!(kept[0], Event::ParallelRegion { tasks: 2, threads: 1 });
/// ```
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    events: Mutex<VecDeque<Event>>,
}

impl RingSink {
    /// A ring holding at most 1024 events.
    pub fn new() -> RingSink {
        RingSink::with_capacity(1024)
    }

    /// A ring holding at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> RingSink {
        let capacity = capacity.max(1);
        RingSink {
            capacity,
            events: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<Event>> {
        self.events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Removes and returns all buffered events, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        self.lock().drain(..).collect()
    }

    /// A copy of the buffered events, oldest first, without draining.
    pub fn events(&self) -> Vec<Event> {
        self.lock().iter().cloned().collect()
    }
}

impl Default for RingSink {
    fn default() -> RingSink {
        RingSink::new()
    }
}

impl EventSink for RingSink {
    fn record(&self, event: &Event) {
        let mut events = self.lock();
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(event.clone());
    }
}

/// Writes each event as one JSON object per line onto any writer —
/// `Vec<u8>` for tests, a file for bench captures.
pub struct JsonLinesSink {
    writer: Mutex<Box<dyn Write + Send>>,
}

impl JsonLinesSink {
    /// Wraps `writer`; each recorded event appends one `\n`-terminated
    /// JSON line.  Write errors are swallowed — observability must never
    /// fail the observed workload.
    pub fn new(writer: impl Write + Send + 'static) -> JsonLinesSink {
        JsonLinesSink {
            writer: Mutex::new(Box::new(writer)),
        }
    }
}

impl fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JsonLinesSink")
    }
}

impl EventSink for JsonLinesSink {
    fn record(&self, event: &Event) {
        let mut writer = self
            .writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let _ = writeln!(writer, "{}", event.to_json());
    }
}

/// The process-global event bus the engine emits through.
///
/// Mirrors the storage layer's process-global term dictionary: subsystems
/// deep inside the executor can emit without any handle plumbing, and the
/// uninstalled fast path is a single relaxed atomic load.
pub mod bus {
    use super::*;

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static SINK: Mutex<Option<Arc<dyn EventSink>>> = Mutex::new(None);

    fn lock() -> MutexGuard<'static, Option<Arc<dyn EventSink>>> {
        SINK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Installs `sink` as the process-wide event receiver, replacing any
    /// previous one.
    pub fn install(sink: Arc<dyn EventSink>) {
        *lock() = Some(sink);
        ACTIVE.store(true, Ordering::Release);
    }

    /// Removes the installed sink, returning emission to its free path.
    pub fn uninstall() {
        ACTIVE.store(false, Ordering::Release);
        *lock() = None;
    }

    /// Whether a sink is currently installed.
    pub fn is_active() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    /// Emits the event produced by `make` if a sink is installed.  With no
    /// sink this is one relaxed load — `make` never runs, so callers can
    /// format strings inside the closure without a hot-path cost.
    pub fn emit(make: impl FnOnce() -> Event) {
        if !ACTIVE.load(Ordering::Relaxed) {
            return;
        }
        let sink = lock().clone();
        if let Some(sink) = sink {
            sink.record(&make());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bus tests share one process-global sink, so they serialize on this
    /// lock to keep install/uninstall from interleaving.
    static BUS_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn bus_guard() -> MutexGuard<'static, ()> {
        BUS_TEST_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn ring_sink_keeps_the_newest_events() {
        let sink = RingSink::with_capacity(3);
        assert!(sink.is_empty());
        for tasks in 0..5 {
            sink.record(&Event::ParallelRegion { tasks, threads: 2 });
        }
        assert_eq!(sink.len(), 3);
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0],
            Event::ParallelRegion {
                tasks: 2,
                threads: 2
            }
        );
        let drained = sink.drain();
        assert_eq!(drained, events);
        assert!(sink.is_empty());
    }

    #[test]
    fn json_lines_are_one_object_per_event() {
        let events = [
            Event::PlanBuilt {
                query: "Ans() :- E(x, \"a\")".to_owned(),
                strategy: "yannakakis-direct".to_owned(),
                micros: 12,
            },
            Event::RunCompleted {
                strategy: "indexed-search".to_owned(),
                answers: 3,
                micros: 7,
            },
            Event::IndexBuilt {
                predicate: "E".to_owned(),
                positions: vec![0, 1],
            },
            Event::ParallelRegion {
                tasks: 8,
                threads: 4,
            },
            Event::ViewRegistered {
                query: "Ans(x) :- E(x, y)".to_owned(),
                strategy: "yannakakis-direct".to_owned(),
            },
            Event::ViewRefreshed {
                mode: "incremental".to_owned(),
                delta_rows: 5,
                rows_added: 2,
                micros: 30,
            },
            Event::WalAppended {
                seq: 7,
                bytes: 128,
                rows: 3,
            },
            Event::SnapshotWritten {
                seq: 7,
                bytes: 4096,
                atoms: 1000,
                micros: 250,
            },
            Event::RecoveryCompleted {
                replayed_batches: 2,
                replayed_rows: 6,
                views: 1,
                plans: 3,
                micros: 900,
            },
        ];
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buffer = Shared(Arc::new(Mutex::new(Vec::new())));
        let sink = JsonLinesSink::new(buffer.clone());
        for event in &events {
            sink.record(event);
        }
        let text = String::from_utf8(buffer.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, event) in lines.iter().zip(&events) {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(
                line.contains(&format!("\"event\":\"{}\"", event.kind())),
                "{line}"
            );
        }
        // The embedded quote in the query was escaped, not emitted raw.
        assert!(lines[0].contains("\\\"a\\\""), "{}", lines[0]);
    }

    #[test]
    fn json_string_escapes_control_characters() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn bus_emits_only_while_a_sink_is_installed() {
        let _serialize = bus_guard();
        bus::uninstall();
        let mut constructed = false;
        bus::emit(|| {
            constructed = true;
            Event::ParallelRegion {
                tasks: 1,
                threads: 1,
            }
        });
        assert!(!constructed, "no sink: the closure must not run");
        assert!(!bus::is_active());

        let sink = Arc::new(RingSink::new());
        bus::install(sink.clone());
        assert!(bus::is_active());
        bus::emit(|| Event::ParallelRegion {
            tasks: 9,
            threads: 3,
        });
        assert!(sink.drain().contains(&Event::ParallelRegion {
            tasks: 9,
            threads: 3
        }));

        bus::uninstall();
        bus::emit(|| Event::ParallelRegion {
            tasks: 1,
            threads: 1,
        });
        assert!(sink.is_empty(), "uninstalled sink receives nothing");
    }

    #[test]
    fn bus_survives_concurrent_emitters() {
        let _serialize = bus_guard();
        let sink = Arc::new(RingSink::with_capacity(10_000));
        bus::install(sink.clone());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for tasks in 0..100 {
                        bus::emit(|| Event::ParallelRegion { tasks, threads: 8 });
                    }
                });
            }
        });
        bus::uninstall();
        assert_eq!(sink.len(), 800, "no emission was lost or duplicated");
    }
}
