//! Durable persistence for [`Database`]: the durable endpoints (`open`,
//! `checkpoint`, `sync_wal`, the append path's WAL hook) as an
//! `impl Database`, and the glue between them and the `sac-wal` crate's
//! log, snapshot and recovery primitives.
//!
//! ## Model
//!
//! A durable database owns a directory:
//!
//! ```text
//! <dir>/wal.sacwal                    the append-only fact log
//! <dir>/snapshot-<seq>.sacsnap        compacted checkpoints (newest wins)
//! ```
//!
//! Every mutation that adds facts ([`Database::insert`] /
//! [`Database::extend_from`] / [`Database::load_facts`]) appends one
//! [`FactBatch`] — the batch's rows as dictionary codes plus the dictionary
//! delta needed to decode them in another process — **while still holding
//! the state write guard**, so durability is atomic with visibility: a
//! concurrent reader that can observe the new facts can only do so after
//! they are on the log (and, under [`SyncMode::Always`], fsynced).
//!
//! A **checkpoint** ([`Database::checkpoint`], or automatically every
//! [`DurabilityOptions::snapshot_every`] appends) dumps the full columnar
//! state — relations, dictionary prefix, constraint set, registered view
//! definitions, and the plan cache's query fingerprints — into an
//! atomically-renamed snapshot file, then truncates the WAL it covers.
//!
//! **Recovery** ([`Database::open`]) is the reverse: load the newest
//! snapshot (failing closed if it does not verify — the reset WAL cannot
//! make up for an older one), replay the WAL tail (truncating a torn final
//! record per the [`sac_wal::log`] repair rule), re-register and refresh the persisted
//! materialized views, warm the plan cache from the persisted fingerprints,
//! and finish with a fresh checkpoint so the rebuilt state — whose
//! dictionary codes belong to *this* process — is the new baseline.
//!
//! ## Locking
//!
//! The durability state (WAL writer, sequence numbers, dictionary mark)
//! sits in its own [`Mutex`], last in the lock order (see
//! [`crate::database`]).  Appends reach it under the state write guard,
//! checkpoints under a read guard: either way the instance, the constraint
//! set and the views a snapshot dumps come from the one guard the caller
//! holds, and the mutex serializes the log against concurrent checkpoints.
//! A constraint change ([`Database::set_tgds`]) checkpoints under its own
//! write guard, so it is durable when the call returns.

use crate::database::{Database, State};
use crate::error::{SacError, SacResult};
use crate::view::{MaterializedView, ViewOptions};
use sac_common::Symbol;
use sac_deps::Tgd;
use sac_query::ConjunctiveQuery;
use sac_storage::{dict, DeltaCursor, Instance};
use sac_wal::{
    latest_snapshot, prune_snapshots, write_snapshot, AtomRepr, FactBatch, QueryRepr,
    RelationBatch, Snapshot, TermRepr, TgdRepr, ViewRepr, WalError, WalWriter,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

pub use sac_wal::{DurabilityOptions, SyncMode};

/// WAL file name inside a durable database's directory.
const WAL_FILE: &str = "wal.sacwal";

/// Snapshot files kept after a checkpoint: the newest, plus the previous
/// one for an operator to fall back to by deleting a corrupt newest.
const SNAPSHOTS_KEPT: usize = 2;

impl From<WalError> for SacError {
    fn from(e: WalError) -> SacError {
        SacError::Persistence {
            message: e.to_string(),
        }
    }
}

/// What [`Database::open`] found and did (see
/// [`Database::recovery_report`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The WAL sequence number of the snapshot recovery started from
    /// (0 when no snapshot existed).
    pub snapshot_seq: u64,
    /// Atoms loaded from the snapshot.
    pub snapshot_atoms: usize,
    /// WAL records replayed on top of the snapshot.
    pub replayed_batches: usize,
    /// Fact rows those records carried.
    pub replayed_rows: usize,
    /// Bytes of torn WAL tail truncated away.
    pub truncated_bytes: u64,
    /// Materialized views re-registered and refreshed.
    pub views: usize,
    /// Plans warmed back into the plan cache.
    pub plans: usize,
    /// Recovery wall time in microseconds.
    pub micros: u64,
}

/// What one checkpoint wrote (see [`Database::checkpoint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The last WAL sequence number the snapshot covers.
    pub seq: u64,
    /// The snapshot file written.
    pub path: PathBuf,
    /// Snapshot file size in bytes.
    pub bytes: u64,
    /// Atoms the snapshot holds.
    pub atoms: usize,
    /// Checkpoint wall time in microseconds.
    pub micros: u64,
}

/// Mutable durability state, guarded by the core's mutex.
#[derive(Debug)]
pub(crate) struct DurableState {
    /// The open, append-positioned log.
    wal: WalWriter,
    /// Sequence number the next appended batch gets.
    next_seq: u64,
    /// How many codes of the process-wide dictionary are already covered
    /// by persisted state (snapshot dump or appended deltas); the next
    /// batch ships `terms_range(dict_mark, len)`.
    dict_mark: u32,
    /// Appends since the last checkpoint, for the auto-snapshot policy.
    since_snapshot: usize,
}

/// The per-database durability engine: directory, options, and the
/// mutex-guarded mutable state.  `None` on non-durable databases — the
/// entire persistence layer costs one `Option` check there.
#[derive(Debug)]
pub(crate) struct DurabilityCore {
    dir: PathBuf,
    options: DurabilityOptions,
    state: Mutex<DurableState>,
}

impl DurabilityCore {
    pub(crate) fn lock_state(&self) -> std::sync::MutexGuard<'_, DurableState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Builds the [`FactBatch`] describing everything `instance` gained since
/// `cursor`, shipping the dictionary delta `dict_mark..len` alongside.
/// Returns `None` when nothing grew (idempotent re-inserts).
fn delta_batch(
    instance: &Instance,
    cursor: &DeltaCursor,
    seq: u64,
    dict_mark: u32,
) -> Option<(FactBatch, u32)> {
    let deltas = instance.delta_since(cursor);
    let mut relations = Vec::with_capacity(deltas.len());
    for delta in &deltas {
        let arity = delta.relation.arity();
        let total = delta.relation.len();
        let row_count = total - delta.from_row;
        if row_count == 0 {
            continue;
        }
        // Flatten the appended tail row-major from the columnar store.
        let mut rows = Vec::with_capacity(row_count * arity);
        for row in delta.from_row..total {
            for pos in 0..arity {
                rows.push(delta.relation.column(pos)[row]);
            }
        }
        relations.push(RelationBatch {
            predicate: delta.predicate.as_str(),
            arity,
            row_count,
            rows,
        });
    }
    if relations.is_empty() {
        return None;
    }
    // Every code in the rows was assigned before this point, so the range
    // up to the current dictionary length covers all of them.
    let dict_len = u32::try_from(dict::len()).expect("term dictionary overflow");
    let dict_terms = dict::terms_range(dict_mark, dict_len)
        .into_iter()
        .map(TermRepr::of)
        .collect();
    Some((
        FactBatch {
            seq,
            dict_start: dict_mark,
            dict_terms,
            relations,
        },
        dict_len,
    ))
}

/// Structural representation of a tgd, as snapshots persist it.
fn tgd_repr(tgd: &Tgd) -> TgdRepr {
    TgdRepr {
        body: tgd.body.iter().map(AtomRepr::of).collect(),
        head: tgd.head.iter().map(AtomRepr::of).collect(),
    }
}

/// Structural representation of a query (view definitions and plan-cache
/// fingerprints persist this instead of display text, which does not
/// round-trip through the parser).
fn query_repr(name: Option<&String>, head: &[Symbol], body: &[sac_common::Atom]) -> QueryRepr {
    QueryRepr {
        name: name.cloned(),
        head: head.iter().map(|s| s.as_str()).collect(),
        body: body.iter().map(AtomRepr::of).collect(),
    }
}

/// Rebuilds a live query from its persisted representation.
fn query_from_repr(repr: &QueryRepr) -> SacResult<ConjunctiveQuery> {
    let head = repr.head.iter().map(|v| sac_common::intern(v)).collect();
    let body = repr.body.iter().map(AtomRepr::to_atom).collect();
    let mut query = ConjunctiveQuery::new(head, body)?;
    query.name = repr.name.clone();
    Ok(query)
}

/// Rebuilds a live tgd from its persisted representation.
fn tgd_from_repr(repr: &TgdRepr) -> SacResult<Tgd> {
    Ok(Tgd::new(
        repr.body.iter().map(AtomRepr::to_atom).collect(),
        repr.head.iter().map(AtomRepr::to_atom).collect(),
    )?)
}

/// Dumps the full instance (plus dictionary prefix) into snapshot form.
/// `views`, `plans` and `tgds` are supplied by the caller, which holds the
/// guards they are read under.
fn snapshot_of(
    instance: &Instance,
    last_seq: u64,
    tgds: Vec<TgdRepr>,
    views: Vec<ViewRepr>,
    plans: Vec<QueryRepr>,
) -> (Snapshot, u32) {
    let dict_len = u32::try_from(dict::len()).expect("term dictionary overflow");
    let dict = dict::terms_range(0, dict_len)
        .into_iter()
        .map(TermRepr::of)
        .collect();
    let relations = instance
        .predicates()
        .filter_map(|pred| instance.relation(pred))
        .map(|rel| {
            let arity = rel.arity();
            let row_count = rel.len();
            let mut rows = Vec::with_capacity(row_count * arity);
            for row in 0..row_count {
                for pos in 0..arity {
                    rows.push(rel.column(pos)[row]);
                }
            }
            RelationBatch {
                predicate: rel.predicate().as_str(),
                arity,
                row_count,
                rows,
            }
        })
        .collect();
    (
        Snapshot {
            last_seq,
            dict,
            relations,
            tgds,
            views,
            plans,
        },
        dict_len,
    )
}

/// The persisted maintenance options of a view.
pub(crate) fn view_repr(query: &ConjunctiveQuery, options: ViewOptions) -> ViewRepr {
    ViewRepr {
        auto_refresh: options.auto_refresh,
        query: query_repr(query.name.as_ref(), &query.head, &query.body),
    }
}

/// What scanning the on-disk state produced, before any engine object is
/// built: the rebuilt instance plus everything needed to finish recovery.
struct DiskState {
    instance: Instance,
    wal: WalWriter,
    last_seq: u64,
    report: RecoveryReport,
    tgds: Vec<TgdRepr>,
    views: Vec<ViewRepr>,
    plans: Vec<QueryRepr>,
}

/// Loads the newest snapshot and replays the (repaired) WAL tail
/// into a fresh [`Instance`], translating persisted codes through the
/// writing process's dictionary images.
fn load_disk_state(dir: &Path, options: DurabilityOptions) -> SacResult<DiskState> {
    std::fs::create_dir_all(dir).map_err(|e| SacError::Persistence {
        message: format!("create durability directory {}: {e}", dir.display()),
    })?;
    let snapshot = latest_snapshot(dir)?;
    let mut report = RecoveryReport::default();

    // The translate table: persisted code → live term.  Codes are local to
    // the process that wrote them; the snapshot's dictionary prefix seeds
    // the table and each replayed batch's delta extends it.
    let mut translate: Vec<sac_common::Term> = Vec::new();
    let mut instance = Instance::new();
    let (tgds, views, plans) = match &snapshot {
        Some(snap) => {
            translate.extend(snap.dict.iter().map(TermRepr::to_term));
            for rel in &snap.relations {
                insert_code_rows(&mut instance, rel, &translate)?;
            }
            report.snapshot_seq = snap.last_seq;
            report.snapshot_atoms = snap.atoms();
            (snap.tgds.clone(), snap.views.clone(), snap.plans.clone())
        }
        None => (Vec::new(), Vec::new(), Vec::new()),
    };
    let snapshot_seq = report.snapshot_seq;

    let (wal, outcome) = WalWriter::open(&dir.join(WAL_FILE), options.sync_mode)?;
    report.truncated_bytes = outcome.truncated_bytes;
    let mut last_seq = snapshot_seq;
    for batch in &outcome.batches {
        // Records the snapshot covers (a crash between its rename and the
        // WAL reset) are skipped whole: the snapshot's dictionary prefix
        // already holds every code they introduced.
        if batch.seq <= snapshot_seq {
            continue;
        }
        apply_dict_delta(&mut translate, batch)?;
        for rel in &batch.relations {
            insert_code_rows(&mut instance, rel, &translate)?;
        }
        report.replayed_batches += 1;
        report.replayed_rows += batch.rows();
        last_seq = last_seq.max(batch.seq);
    }

    Ok(DiskState {
        instance,
        wal,
        last_seq,
        report,
        tgds,
        views,
        plans,
    })
}

/// Extends the translate table with one batch's dictionary delta, which
/// must start exactly where the table ends: every successful open ends in
/// a re-baselining checkpoint, so a snapshot and its tail always carry one
/// process's contiguous codes.  A gap means a record that introduced the
/// missing codes was lost mid-log, an overlap that the log and the
/// snapshot come from different epochs — unrecoverable corruption either
/// way, unlike a torn tail.
fn apply_dict_delta(translate: &mut Vec<sac_common::Term>, batch: &FactBatch) -> SacResult<()> {
    let start = batch.dict_start as usize;
    if start != translate.len() {
        return Err(SacError::Persistence {
            message: format!(
                "WAL record {} starts its dictionary delta at code {start} but exactly {} codes are known",
                batch.seq,
                translate.len()
            ),
        });
    }
    translate.extend(batch.dict_terms.iter().map(TermRepr::to_term));
    Ok(())
}

/// Inserts one persisted relation dump into `instance`, translating codes.
fn insert_code_rows(
    instance: &mut Instance,
    rel: &RelationBatch,
    translate: &[sac_common::Term],
) -> SacResult<()> {
    for row in rel.code_rows() {
        let args = row
            .iter()
            .map(|&code| {
                translate
                    .get(code as usize)
                    .copied()
                    .ok_or_else(|| SacError::Persistence {
                        message: format!(
                            "relation {} references code {code} beyond the {} known dictionary entries",
                            rel.predicate,
                            translate.len()
                        ),
                    })
            })
            .collect::<SacResult<Vec<_>>>()?;
        instance.insert(sac_common::Atom::from_parts(&rel.predicate, args))?;
    }
    Ok(())
}

/// Writes `snapshot` into `dir` and prunes old generations; returns the
/// file written and its size.
fn persist_snapshot(dir: &Path, snapshot: &Snapshot) -> SacResult<(PathBuf, u64)> {
    let written = write_snapshot(dir, snapshot)?;
    prune_snapshots(dir, SNAPSHOTS_KEPT);
    Ok(written)
}

impl Database {
    /// Opens (or creates) a durable database in directory `path` with
    /// default [`DurabilityOptions`]: every append fsynced, automatic
    /// snapshots.
    ///
    /// Recovery loads the newest snapshot — a newest file that does not
    /// verify is a [`SacError::Persistence`] naming it, never a silent
    /// fallback to an older one — replays the WAL tail
    /// (truncating a torn final record), re-registers and refreshes every
    /// persisted materialized view, warms the plan cache from the persisted
    /// query fingerprints, and checkpoints the rebuilt state so this
    /// process's dictionary codes become the on-disk baseline.  The
    /// constraint set is restored before any plan is warmed.
    pub fn open(path: impl AsRef<Path>) -> SacResult<Database> {
        Database::open_with(path, DurabilityOptions::default())
    }

    /// [`Database::open`] with explicit durability options.
    pub fn open_with(path: impl AsRef<Path>, options: DurabilityOptions) -> SacResult<Database> {
        let started = Instant::now();
        let dir = path.as_ref().to_path_buf();
        let disk = load_disk_state(&dir, options)?;
        let mut report = disk.report;

        let mut db = Database::from_instance(disk.instance);
        // The persisted constraint set goes straight into the state, before
        // the durability core exists: restoring it is not a change to
        // persist, and the one checkpoint below covers it.
        db.state_mut().tgds = disk
            .tgds
            .iter()
            .map(tgd_from_repr)
            .collect::<SacResult<Vec<_>>>()?;
        db.durability = Some(DurabilityCore {
            dir,
            options,
            state: Mutex::new(DurableState {
                wal: disk.wal,
                next_seq: disk.last_seq + 1,
                // 0 until the checkpoint below re-baselines: the persisted
                // dictionary codes belong to the dead process, not this one.
                dict_mark: 0,
                since_snapshot: 0,
            }),
        });
        db.metrics
            .recovery_replayed_batches
            .fetch_add(report.replayed_batches, Ordering::Relaxed);

        // Re-register the persisted views (initial refresh included) and
        // pin them: the weak registry alone would unregister them as soon
        // as this loop drops its reference.  Nothing is written until every
        // view is back — a snapshot taken in between would list a prefix of
        // the view set and reset the WAL behind it.
        for view in &disk.views {
            let query = query_from_repr(&view.query)?;
            let options = ViewOptions {
                auto_refresh: view.auto_refresh,
            };
            let core = db.register_view(query, options);
            db.state_mut().recovered_views.push(core);
            report.views += 1;
        }

        // Warm the plan cache from the persisted fingerprints.  A repr the
        // current validation rejects (e.g. written by a newer build) is
        // skipped, not fatal: the cache is an optimization.
        for repr in &disk.plans {
            if let Ok(query) = query_from_repr(repr) {
                db.plan_arc(&query);
                report.plans += 1;
            }
        }

        // Checkpoint the rebuilt state: the WAL is compacted away and the
        // dictionary watermark re-baselines to this process's codes.
        db.checkpoint()?;

        report.micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        db.recovery = Some(report);
        Ok(db)
    }

    /// The state of a database no other thread can see yet.
    fn state_mut(&mut self) -> &mut State {
        self.state.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether this database persists its mutations (created by
    /// [`Database::open`]).
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// What recovery found and did, for databases created by
    /// [`Database::open`]; `None` on non-durable databases.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Fresh handles over the materialized views recovered from disk, in
    /// their persisted registration order.  Empty on non-durable databases
    /// and on durable ones that had no views.
    pub fn durable_views(&self) -> Vec<MaterializedView<'_>> {
        self.read_state()
            .recovered_views
            .iter()
            .map(|core| MaterializedView::new(self, Arc::clone(core)))
            .collect()
    }

    /// Writes a compacted snapshot covering every append so far and
    /// truncates the WAL it covers.  Errors on a non-durable database.
    pub fn checkpoint(&self) -> SacResult<CheckpointReport> {
        let core = self
            .durability
            .as_ref()
            .ok_or_else(|| SacError::Persistence {
                message: "checkpoint on a non-durable database (use Database::open)".to_owned(),
            })?;
        // Same lock order as the append path: state guard, then the
        // durability state.  A read guard suffices: appends wait for it,
        // and concurrent checkpoints serialize on the durability mutex.
        let state = self.read_state();
        self.checkpoint_locked(core, &state, &mut core.lock_state())
    }

    /// Forces every WAL byte written so far to disk, regardless of the
    /// sync mode — the graceful-shutdown companion of
    /// [`SyncMode::Never`].  No-op answer on a non-durable database.
    pub fn sync_wal(&self) -> SacResult<()> {
        if let Some(core) = &self.durability {
            core.lock_state().wal.sync()?;
        }
        Ok(())
    }

    /// The append-path durability hook: called by the append path **under
    /// the state write guard** with the pre-mutation cursor; appends one
    /// WAL record covering exactly the growth, then checkpoints if the
    /// auto-snapshot threshold is hit.
    pub(crate) fn persist_growth(&self, state: &State, cursor: &DeltaCursor) -> SacResult<()> {
        let core = self
            .durability
            .as_ref()
            .expect("persist_growth on a non-durable database");
        let mut durable = core.lock_state();
        let seq = durable.next_seq;
        let Some((batch, dict_len)) = delta_batch(&state.instance, cursor, seq, durable.dict_mark)
        else {
            return Ok(());
        };
        let bytes = durable.wal.append(&batch)?;
        durable.next_seq += 1;
        durable.dict_mark = dict_len;
        durable.since_snapshot += 1;
        self.metrics.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.metrics.wal_bytes.fetch_add(
            usize::try_from(bytes).unwrap_or(usize::MAX),
            Ordering::Relaxed,
        );
        if core.options.snapshot_every > 0 && durable.since_snapshot >= core.options.snapshot_every
        {
            self.checkpoint_locked(core, state, &mut durable)?;
        }
        Ok(())
    }

    /// The checkpoint workhorse; the caller holds a state guard (read or
    /// write) and the durability state lock.  The instance, the constraint
    /// set and the live views all come from that one guard.
    pub(crate) fn checkpoint_locked(
        &self,
        core: &DurabilityCore,
        state: &State,
        durable: &mut DurableState,
    ) -> SacResult<CheckpointReport> {
        let started = Instant::now();
        let tgds = state.tgds.iter().map(tgd_repr).collect();
        // Live views (upgradable weaks), in registration order.
        let views = state
            .views
            .iter()
            .filter_map(Weak::upgrade)
            .map(|view| view_repr(&view.query, view.options))
            .collect();
        // The plan cache is last and released before any I/O.
        let plans = self
            .read_plans()
            .keys()
            .map(|(head, body)| query_repr(None, head, body))
            .collect();
        let last_seq = durable.next_seq.saturating_sub(1);
        let (snapshot, dict_len) = snapshot_of(&state.instance, last_seq, tgds, views, plans);
        let atoms = snapshot.atoms();
        let (path, bytes) = persist_snapshot(&core.dir, &snapshot)?;
        // The snapshot is the baseline from here on, whether or not the
        // reset below succeeds: recovery skips the records it covers, so
        // the next record's dictionary delta must start where it ends.
        durable.dict_mark = dict_len;
        durable.wal.reset()?;
        durable.since_snapshot = 0;
        self.metrics
            .snapshots_written
            .fetch_add(1, Ordering::Relaxed);
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        Ok(CheckpointReport {
            seq: last_seq,
            path,
            bytes,
            atoms,
            micros,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{Atom, Term};

    #[test]
    fn query_reprs_round_trip_structurally() {
        let q = ConjunctiveQuery::new(
            vec![sac_common::intern("X")],
            vec![Atom::from_parts(
                "E",
                vec![Term::variable("X"), Term::variable("Y")],
            )],
        )
        .unwrap()
        .named("lowercase_name_would_reparse_as_constant");
        let repr = query_repr(q.name.as_ref(), &q.head, &q.body);
        let back = query_from_repr(&repr).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn tgd_reprs_round_trip_structurally() {
        let tgd = Tgd::new(
            vec![Atom::from_parts(
                "E",
                vec![Term::variable("X"), Term::variable("Y")],
            )],
            vec![Atom::from_parts(
                "R",
                vec![Term::variable("Y"), Term::variable("X")],
            )],
        )
        .unwrap();
        assert_eq!(tgd_from_repr(&tgd_repr(&tgd)).unwrap(), tgd);
    }

    #[test]
    fn dict_delta_gaps_are_corruption() {
        let mut translate = Vec::new();
        let batch = FactBatch {
            seq: 1,
            dict_start: 5,
            dict_terms: vec![TermRepr::Constant("x".into())],
            relations: Vec::new(),
        };
        assert!(matches!(
            apply_dict_delta(&mut translate, &batch),
            Err(SacError::Persistence { .. })
        ));
    }

    #[test]
    fn dict_delta_overlaps_are_corruption() {
        let mut translate = vec![Term::constant("old")];
        let mut batch = FactBatch {
            seq: 2,
            dict_start: 0,
            dict_terms: vec![
                TermRepr::Constant("new".into()),
                TermRepr::Constant("tail".into()),
            ],
            relations: Vec::new(),
        };
        assert!(matches!(
            apply_dict_delta(&mut translate, &batch),
            Err(SacError::Persistence { .. })
        ));
        assert_eq!(translate, vec![Term::constant("old")], "left untouched");

        // The same delta starting exactly at the table's end extends it.
        batch.dict_start = 1;
        apply_dict_delta(&mut translate, &batch).unwrap();
        assert_eq!(translate.len(), 3);
    }

    #[test]
    fn durable_constraint_changes_survive_a_restart() {
        let dir = std::env::temp_dir().join(format!("sac_durable_tgds_{}", std::process::id()));
        {
            let db = Database::open(&dir).unwrap();
            db.set_tgds(vec![sac_gen::collector_tgd()]).unwrap();
            db.load_facts("Interest(ann, jazz).").unwrap();
        }
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.tgds(), vec![sac_gen::collector_tgd()]);
        assert_eq!(db.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_codes_are_corruption() {
        let mut instance = Instance::new();
        let rel = RelationBatch {
            predicate: "E".into(),
            arity: 1,
            row_count: 1,
            rows: vec![9],
        };
        assert!(matches!(
            insert_code_rows(&mut instance, &rel, &[Term::constant("only")]),
            Err(SacError::Persistence { .. })
        ));
    }
}
