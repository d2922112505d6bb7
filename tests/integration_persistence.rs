//! The kill/recover differential suite: a durable [`Database`] is fed a
//! stream of append batches (with a checkpoint mid-stream), killed — once
//! cleanly at a batch boundary, once with the final WAL record deliberately
//! torn — and reopened.  The recovered database must return **byte-identical**
//! answer sets to a never-restarted twin for every strategy rung (direct
//! Yannakakis, acyclic witness, forced indexed search) at parallelism 1, 2
//! and 4, and its recovered materialized view must equal the twin's.
//!
//! Each test prints one `recovery digest:` line, an FNV-1a hash over the
//! display form of every (query, answers) pair.  CI runs the suite twice
//! under `--test-threads=1` and diffs those lines, so any nondeterminism in
//! the recovery path breaks the build.

use sac::prelude::*;
use std::path::PathBuf;

/// FNV-1a over the display form of everything the sweep produced — the
/// same digest the differential suite uses, stable across runs iff the
/// recovered answers are.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn absorb(&mut self, text: &str) {
        for byte in text.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const PARALLELISM_LEVELS: [usize; 3] = [1, 2, 4];
const VIEW_QUERY: &str = "q(X, Z) :- E(X, Y), E(Y, Z).";

/// A fresh scratch directory for one test's durable database.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sac-integration-persistence-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Queries covering all three strategy rungs: paths/stars plan on the
/// direct Yannakakis rung, the looped triangle has an acyclic core and
/// planes on the witness rung, and the 3-cycle (no reformulation exists)
/// falls to indexed search.
fn rung_queries() -> Vec<ConjunctiveQuery> {
    vec![
        sac::gen::path_query(2),
        sac::gen::star_query(3),
        sac::gen::looped_triangle_query(),
        sac::gen::cycle_query(3),
    ]
}

/// Asserts `recovered` answers every rung query identically to `twin` at
/// every batch width — the rung queries go through as one `run_batch`,
/// fanned out per query above width 1 — and through the forced-indexed
/// fallback, absorbing each answer set into `digest`.
fn assert_identical_answers(recovered: Database, twin: &Database, digest: &mut Digest) {
    let mut recovered = recovered;
    let mut rungs = std::collections::BTreeSet::new();
    for force_indexed in [false, true] {
        recovered = recovered.with_config(EngineConfig {
            force_indexed,
            ..EngineConfig::default()
        });
        for parallelism in PARALLELISM_LEVELS {
            recovered = recovered.with_parallelism(parallelism);
            let queries = rung_queries();
            let answers = recovered.run_batch(&queries);
            for (query, ours) in queries.iter().zip(answers) {
                rungs.insert(recovered.explain(query).strategy.to_string());
                let theirs = twin.run(query);
                assert_eq!(
                    ours, theirs,
                    "recovered database disagrees with the never-restarted twin on \
                     {query} (forced={force_indexed}, parallelism {parallelism})"
                );
                digest.absorb(&format!(
                    "forced={force_indexed} par={parallelism} | {query} -> {ours}"
                ));
            }
        }
    }
    assert!(
        rungs.contains("yannakakis-direct")
            && rungs.contains("yannakakis-witness")
            && rungs.contains("indexed-search"),
        "rung sweep must cover all three strategies, saw {rungs:?}"
    );
}

#[test]
fn kill_at_a_batch_boundary_recovers_the_exact_database() {
    let dir = scratch_dir("boundary");
    let (base, stream) = sac::gen::streaming_graph_workload(40, 200, 8, 25, 17);

    // The never-restarted twin ingests the identical sequence in-process.
    let twin = Database::from_instance(base.clone());
    let twin_view = twin.materialize(VIEW_QUERY).expect("valid standing query");
    for batch in &stream {
        for atom in batch {
            twin.insert(atom.clone()).expect("twin append");
        }
    }

    // The durable run: same base, a standing query, a checkpoint
    // mid-stream, then the rest of the batches and a clean drop at a batch
    // boundary (some batches live only in the WAL tail, not the snapshot).
    {
        let db = Database::open(&dir).expect("create durable database");
        db.extend_from(&base).expect("load base");
        // Bind the handle: the view registry holds weak references, and
        // only live views are persisted by later checkpoints.
        let view = db.materialize(VIEW_QUERY).expect("valid standing query");
        for (i, batch) in stream.iter().enumerate() {
            for atom in batch {
                db.insert(atom.clone()).expect("durable append");
            }
            if i == stream.len() / 2 {
                db.checkpoint().expect("mid-stream checkpoint");
            }
        }
        assert_eq!(db.len(), twin.len(), "durable twin drifted before the kill");
        drop(view);
    }

    // "Crash" recovery: reopen and sweep every rung × parallelism cell.
    let recovered = Database::open(&dir).expect("recover");
    let report = recovered.recovery_report().expect("opened from disk");
    assert!(
        report.replayed_batches > 0,
        "the mid-stream checkpoint must leave WAL records to replay"
    );
    assert_eq!(report.views, 1);
    assert_eq!(recovered.len(), twin.len());

    let views = recovered.durable_views();
    assert_eq!(views.len(), 1);
    assert_eq!(
        views[0].snapshot(),
        twin_view.snapshot(),
        "recovered view disagrees with the never-restarted twin's"
    );

    let mut digest = Digest::new();
    digest.absorb(&format!("view -> {}", views[0].snapshot()));
    assert_identical_answers(recovered, &twin, &mut digest);
    println!("recovery digest: batch boundary {:016x}", digest.0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_final_wal_record_recovers_the_acknowledged_prefix() {
    let dir = scratch_dir("torn");
    let (base, stream) = sac::gen::streaming_graph_workload(30, 120, 6, 20, 29);
    let (tail, acknowledged) = stream.split_last().expect("nonempty stream");

    // The twin ingests everything EXCEPT the final batch: that batch's WAL
    // record is the one the "crash" tears, so recovery must roll it back.
    let twin = Database::from_instance(base.clone());
    let twin_view = twin.materialize(VIEW_QUERY).expect("valid standing query");
    for batch in acknowledged {
        for atom in batch {
            twin.insert(atom.clone()).expect("twin append");
        }
    }

    {
        let db = Database::open(&dir).expect("create durable database");
        db.extend_from(&base).expect("load base");
        let view = db.materialize(VIEW_QUERY).expect("valid standing query");
        for batch in acknowledged {
            for atom in batch {
                db.insert(atom.clone()).expect("durable append");
            }
        }
        // The final batch goes in as ONE WAL record (extend_from = one
        // frame), which the tear below truncates away in its entirety.
        let mut last = Instance::new();
        for atom in tail {
            let _ = last.insert(atom.clone());
        }
        db.extend_from(&last).expect("final durable append");
        drop(view);
    }

    // Tear the final record: chop bytes off the end of the log, simulating
    // a crash partway through the last write().
    let wal = dir.join("wal.sacwal");
    let len = std::fs::metadata(&wal).expect("wal exists").len();
    assert!(len > 4, "the final batch must have produced a WAL record");
    std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .expect("wal is writable")
        .set_len(len - 3)
        .expect("truncate");

    let recovered = Database::open(&dir).expect("recover from torn tail");
    let report = recovered.recovery_report().expect("opened from disk");
    assert!(
        report.truncated_bytes > 0,
        "the torn frame must be detected and truncated"
    );
    assert_eq!(
        recovered.len(),
        twin.len(),
        "recovery must keep exactly the acknowledged prefix"
    );

    let views = recovered.durable_views();
    assert_eq!(views.len(), 1);
    assert_eq!(views[0].snapshot(), twin_view.snapshot());

    let mut digest = Digest::new();
    digest.absorb(&format!(
        "truncated>0={} view -> {}",
        report.truncated_bytes > 0,
        views[0].snapshot()
    ));
    assert_identical_answers(recovered, &twin, &mut digest);
    println!("recovery digest: torn tail {:016x}", digest.0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_newest_snapshot_fails_closed() {
    let dir = scratch_dir("corrupt-newest");
    let newest = {
        let db = Database::open(&dir).expect("create durable database");
        db.load_facts("E(a, b). E(b, c).").expect("facts");
        db.checkpoint().expect("first checkpoint");
        db.load_facts("E(c, d). E(d, e). E(e, f).").expect("facts");
        let report = db.checkpoint().expect("second checkpoint");
        assert_eq!(db.len(), 5);
        report.path
    };

    let mut bytes = std::fs::read(&newest).expect("newest snapshot exists");
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0xff;
    std::fs::write(&newest, &bytes).expect("corrupt the newest snapshot");

    // Every checkpoint resets the WAL, so the older snapshot is three
    // acknowledged, checkpointed facts short and nothing on disk can make
    // up the difference: opening must refuse, not serve 2 of 5 facts.
    let file_name = newest.file_name().unwrap().to_string_lossy().into_owned();
    match Database::open(&dir) {
        Err(SacError::Persistence { message }) => assert!(
            message.contains(&file_name),
            "the error must name the corrupt snapshot, got: {message}"
        ),
        Err(other) => panic!("expected a persistence error, got {other:?}"),
        Ok(db) => panic!(
            "opened with {} of 5 facts, recovery report {:?}",
            db.len(),
            db.recovery_report()
        ),
    }

    // The refusal left the directory alone: the operator's way out —
    // deleting the corrupt file deliberately — opens the older state.
    std::fs::remove_file(&newest).expect("delete the corrupt snapshot");
    assert_eq!(Database::open(&dir).expect("older snapshot").len(), 2);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_is_idempotent_across_repeated_reopens() {
    let dir = scratch_dir("idempotent");
    {
        let db = Database::open(&dir).expect("create durable database");
        db.load_facts("E(a, b). E(b, c). E(c, d).").expect("facts");
        db.materialize(VIEW_QUERY).expect("valid standing query");
    }

    // Every reopen ends in a checkpoint that re-baselines the on-disk
    // state; none of them may change what the database answers.
    let mut digest = Digest::new();
    let mut previous: Option<ResultSet> = None;
    for round in 0..3 {
        let db = Database::open(&dir).expect("reopen");
        let rows = db.query(VIEW_QUERY).expect("query");
        assert_eq!(db.len(), 3);
        assert_eq!(db.durable_views().len(), 1);
        if let Some(expected) = &previous {
            assert_eq!(&rows, expected, "reopen round {round} changed the answers");
        }
        digest.absorb(&format!("round {round} -> {rows}"));
        previous = Some(rows);
    }
    println!("recovery digest: idempotent reopen {:016x}", digest.0);

    std::fs::remove_dir_all(&dir).ok();
}
