//! Durable persistence for [`Database`](crate::Database): the glue between the engine's
//! append path and the `sac-wal` crate's log, snapshot and recovery
//! primitives.
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
//! Every mutation that adds facts ([`Database::insert`](crate::Database::insert) /
//! [`Database::extend_from`](crate::Database::extend_from) / [`Database::load_facts`](crate::Database::load_facts)) appends one
//! [`FactBatch`] — the batch's rows as dictionary codes plus the dictionary
//! delta needed to decode them in another process — **while still holding
//! the instance write guard**, so durability is atomic with visibility: a
//! concurrent reader that can observe the new facts can only do so after
//! they are on the log (and, under [`SyncMode::Always`], fsynced).
//!
//! A **checkpoint** ([`Database::checkpoint`](crate::Database::checkpoint), or automatically every
//! [`DurabilityOptions::snapshot_every`] appends) dumps the full columnar
//! state — relations, dictionary prefix, constraint set, registered view
//! definitions, and the plan cache's query fingerprints — into an
//! atomically-renamed snapshot file, then truncates the WAL it covers.
//!
//! **Recovery** ([`Database::open`](crate::Database::open)) is the reverse: load the newest
//! snapshot (failing closed if it does not verify — the reset WAL cannot
//! make up for an older one), replay the WAL tail (truncating a torn final
//! record per the [`sac_wal::log`] repair rule), re-register and refresh the persisted
//! materialized views, warm the plan cache from the persisted fingerprints,
//! and finish with a fresh checkpoint so the rebuilt state — whose
//! dictionary codes belong to *this* process — is the new baseline.
//!
//! ## Locking
//!
//! The durability state sits in its own [`Mutex`], acquired strictly after
//! the instance guard (lock order: `tgds` → `instance` → `views` →
//! per-view state → `indexes`, with `durability` last).  Checkpoints need
//! the tgd set, but the plan path acquires `tgds` *before* `instance`, so
//! reading the live tgds under the instance guard would invert the order;
//! instead the core caches its own structural copy, updated by
//! [`Database::set_tgds`](crate::Database::set_tgds).

use crate::error::{SacError, SacResult};
use crate::view::ViewOptions;
use sac_common::Symbol;
use sac_deps::Tgd;
use sac_query::ConjunctiveQuery;
use sac_storage::{dict, DeltaCursor, Instance};
use sac_wal::{
    latest_snapshot, prune_snapshots, write_snapshot, AtomRepr, FactBatch, QueryRepr,
    RelationBatch, Snapshot, TermRepr, TgdRepr, ViewRepr, WalError, WalWriter,
};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

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

/// What [`Database::open`](crate::Database::open) found and did (see
/// [`Database::recovery_report`](crate::Database::recovery_report)).
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

/// What one checkpoint wrote (see [`Database::checkpoint`](crate::Database::checkpoint)).
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
    pub(crate) wal: WalWriter,
    /// Sequence number the next appended batch gets.
    pub(crate) next_seq: u64,
    /// How many codes of the process-wide dictionary are already covered
    /// by persisted state (snapshot dump or appended deltas); the next
    /// batch ships `terms_range(dict_mark, len)`.
    pub(crate) dict_mark: u32,
    /// Appends since the last checkpoint, for the auto-snapshot policy.
    pub(crate) since_snapshot: usize,
}

/// The per-database durability engine: directory, options, and the
/// mutex-guarded mutable state.  `None` on non-durable databases — the
/// entire persistence layer costs one `Option` check there.
#[derive(Debug)]
pub(crate) struct DurabilityCore {
    pub(crate) dir: PathBuf,
    pub(crate) options: DurabilityOptions,
    pub(crate) state: Mutex<DurableState>,
    /// Structural copy of the constraint set, maintained by
    /// [`Database::set_tgds`](crate::Database::set_tgds) so checkpoints never read the `tgds` lock
    /// while holding the instance guard (see the module docs on ordering).
    pub(crate) tgds_repr: Mutex<Vec<TgdRepr>>,
}

impl DurabilityCore {
    pub(crate) fn lock_state(&self) -> std::sync::MutexGuard<'_, DurableState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn lock_tgds_repr(&self) -> std::sync::MutexGuard<'_, Vec<TgdRepr>> {
        self.tgds_repr.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The WAL path inside `dir`.
    pub(crate) fn wal_path(dir: &Path) -> PathBuf {
        dir.join(WAL_FILE)
    }
}

/// Builds the [`FactBatch`] describing everything `instance` gained since
/// `cursor`, shipping the dictionary delta `dict_mark..len` alongside.
/// Returns `None` when nothing grew (idempotent re-inserts).
pub(crate) fn delta_batch(
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

/// Structural representation of a tgd (for the checkpoint's cached copy).
pub(crate) fn tgd_repr(tgd: &Tgd) -> TgdRepr {
    TgdRepr {
        body: tgd.body.iter().map(AtomRepr::of).collect(),
        head: tgd.head.iter().map(AtomRepr::of).collect(),
    }
}

/// Structural representation of a query (view definitions and plan-cache
/// fingerprints persist this instead of display text, which does not
/// round-trip through the parser).
pub(crate) fn query_repr(
    name: Option<&String>,
    head: &[Symbol],
    body: &[sac_common::Atom],
) -> QueryRepr {
    QueryRepr {
        name: name.cloned(),
        head: head.iter().map(|s| s.as_str()).collect(),
        body: body.iter().map(AtomRepr::of).collect(),
    }
}

/// Rebuilds a live query from its persisted representation.
pub(crate) fn query_from_repr(repr: &QueryRepr) -> SacResult<ConjunctiveQuery> {
    let head = repr.head.iter().map(|v| sac_common::intern(v)).collect();
    let body = repr.body.iter().map(AtomRepr::to_atom).collect();
    let mut query = ConjunctiveQuery::new(head, body)?;
    query.name = repr.name.clone();
    Ok(query)
}

/// Rebuilds a live tgd from its persisted representation.
pub(crate) fn tgd_from_repr(repr: &TgdRepr) -> SacResult<Tgd> {
    Ok(Tgd::new(
        repr.body.iter().map(AtomRepr::to_atom).collect(),
        repr.head.iter().map(AtomRepr::to_atom).collect(),
    )?)
}

/// Dumps the full instance (plus dictionary prefix) into snapshot form.
/// `views`, `plans` and `tgds` are supplied by the caller, which owns the
/// respective locks.
pub(crate) fn snapshot_of(
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
pub(crate) struct DiskState {
    pub(crate) instance: Instance,
    pub(crate) wal: WalWriter,
    pub(crate) last_seq: u64,
    pub(crate) report: RecoveryReport,
    pub(crate) tgds: Vec<TgdRepr>,
    pub(crate) views: Vec<ViewRepr>,
    pub(crate) plans: Vec<QueryRepr>,
}

/// Loads the newest snapshot and replays the (repaired) WAL tail
/// into a fresh [`Instance`], translating persisted codes through the
/// writing process's dictionary images.
pub(crate) fn load_disk_state(dir: &Path, options: DurabilityOptions) -> SacResult<DiskState> {
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

    let (wal, outcome) = WalWriter::open(&DurabilityCore::wal_path(dir), options.sync_mode)?;
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
pub(crate) fn persist_snapshot(dir: &Path, snapshot: &Snapshot) -> SacResult<(PathBuf, u64)> {
    let written = write_snapshot(dir, snapshot)?;
    prune_snapshots(dir, SNAPSHOTS_KEPT);
    Ok(written)
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
