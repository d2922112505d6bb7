//! Snapshot files: atomically written, checksummed checkpoint dumps.
//!
//! A snapshot lives at `snapshot-<seq, zero-padded>.sacsnap` inside the
//! database directory, where `<seq>` is the last WAL sequence number it
//! covers — zero-padding makes lexicographic directory order equal
//! numeric order.  Layout:
//!
//! ```text
//! magic b"SACSNP01" · body_len u64 LE · checksum u64 LE · body
//! ```
//!
//! Writes go to a `.tmp` sibling, fsync, then rename over the final name
//! and fsync the directory — a crash mid-write leaves at worst a stale
//! temp file, never a half-visible snapshot.  Readers take the
//! **newest-named** snapshot and fail if it does not verify: every
//! checkpoint resets the WAL it covers, so an older snapshot plus the log
//! is missing everything appended between the two checkpoints and is never
//! a safe substitute.  (The one window in which the log still covers the
//! older file is a crash between the rename and the reset — and then the
//! newest file is intact.)  An operator who wants the older state deletes
//! the corrupt file deliberately.

use crate::codec::fnv64;
use crate::record::Snapshot;
use crate::{WalError, WalResult};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The snapshot file magic.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SACSNP01";

const SUFFIX: &str = ".sacsnap";

/// The file name covering WAL seq `last_seq`.
fn file_name(last_seq: u64) -> String {
    format!("snapshot-{last_seq:020}{SUFFIX}")
}

/// The `last_seq` a snapshot file name encodes, if it is one.
fn parse_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?
        .strip_suffix(SUFFIX)?
        .parse()
        .ok()
}

/// Writes `snapshot` into `dir` atomically; returns the final path and the
/// file's size in bytes.
pub fn write_snapshot(dir: &Path, snapshot: &Snapshot) -> WalResult<(PathBuf, u64)> {
    let body = snapshot.encode();
    let mut bytes = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 16 + body.len());
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv64(&body).to_le_bytes());
    bytes.extend_from_slice(&body);

    let final_path = dir.join(file_name(snapshot.last_seq));
    let tmp_path = dir.join(format!("{}.tmp", file_name(snapshot.last_seq)));
    {
        let mut tmp = fs::File::create(&tmp_path)
            .map_err(|e| WalError::io(format!("create {}", tmp_path.display()), e))?;
        tmp.write_all(&bytes)
            .map_err(|e| WalError::io(format!("write {}", tmp_path.display()), e))?;
        tmp.sync_all()
            .map_err(|e| WalError::io(format!("sync {}", tmp_path.display()), e))?;
    }
    fs::rename(&tmp_path, &final_path).map_err(|e| {
        WalError::io(
            format!(
                "rename {} over {}",
                tmp_path.display(),
                final_path.display()
            ),
            e,
        )
    })?;
    sync_dir(dir)?;
    Ok((final_path, bytes.len() as u64))
}

/// Reads and validates one snapshot file.
pub fn read_snapshot(path: &Path) -> WalResult<Snapshot> {
    let bytes = fs::read(path).map_err(|e| WalError::io(format!("read {}", path.display()), e))?;
    let header = SNAPSHOT_MAGIC.len() + 16;
    if bytes.len() < header || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(WalError::corrupt(format!(
            "{} is not a SACSNP01 snapshot",
            path.display()
        )));
    }
    let body_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let body = &bytes[header..];
    if body.len() as u64 != body_len {
        return Err(WalError::corrupt(format!(
            "{}: body is {} bytes, header declares {body_len}",
            path.display(),
            body.len()
        )));
    }
    if fnv64(body) != checksum {
        return Err(WalError::corrupt(format!(
            "{}: checksum mismatch",
            path.display()
        )));
    }
    Snapshot::decode(body)
}

/// The newest-named snapshot in `dir`, if any.  A newest file that does
/// not verify is an error naming it, never a fallback to an older one (see
/// the module docs).
pub fn latest_snapshot(dir: &Path) -> WalResult<Option<Snapshot>> {
    let newest = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|entry| entry.ok())
            .filter_map(|entry| parse_file_name(&entry.file_name().to_string_lossy()))
            .max(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(WalError::io(format!("list {}", dir.display()), e)),
    };
    newest
        .map(|seq| read_snapshot(&dir.join(file_name(seq))))
        .transpose()
}

/// Removes all but the newest `keep` snapshot files (temp leftovers
/// included).  Best-effort: a file that refuses deletion is left behind.
pub fn prune_snapshots(dir: &Path, keep: usize) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut seqs = Vec::new();
    for entry in entries.filter_map(|e| e.ok()) {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".tmp") && name.contains(SUFFIX) {
            fs::remove_file(entry.path()).ok();
        } else if let Some(seq) = parse_file_name(&name) {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    for seq in seqs.into_iter().skip(keep.max(1)) {
        fs::remove_file(dir.join(file_name(seq))).ok();
    }
}

/// fsyncs a directory so a just-renamed file's directory entry is durable.
fn sync_dir(dir: &Path) -> WalResult<()> {
    #[cfg(unix)]
    {
        fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| WalError::io(format!("sync directory {}", dir.display()), e))?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RelationBatch, TermRepr};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sac_wal_snap_{tag}_{}_{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snapshot(last_seq: u64) -> Snapshot {
        Snapshot {
            last_seq,
            dict: vec![TermRepr::Constant(format!("s{last_seq}"))],
            relations: vec![RelationBatch {
                predicate: "E".into(),
                arity: 1,
                row_count: 1,
                rows: vec![0],
            }],
            tgds: vec![],
            views: vec![],
            plans: vec![],
        }
    }

    #[test]
    fn write_then_latest_round_trips() {
        let dir = temp_dir("roundtrip");
        write_snapshot(&dir, &snapshot(3)).unwrap();
        write_snapshot(&dir, &snapshot(8)).unwrap();
        let latest = latest_snapshot(&dir).unwrap();
        assert_eq!(latest.unwrap().last_seq, 8);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let dir = temp_dir("fallback");
        write_snapshot(&dir, &snapshot(3)).unwrap();
        let (newest, _) = write_snapshot(&dir, &snapshot(9)).unwrap();
        // Corrupt the newest file's body.
        let mut bytes = fs::read(&newest).unwrap();
        let len = bytes.len();
        bytes[len - 1] ^= 0xff;
        fs::write(&newest, &bytes).unwrap();

        // The corrupt newest file is an error naming it, not a silent
        // fallback: the older snapshot lacks what the log no longer holds.
        match latest_snapshot(&dir) {
            Err(WalError::Corrupt { message }) => assert!(
                message.contains(&*newest.to_string_lossy()),
                "the error names the file: {message}"
            ),
            other => panic!("expected a corruption error, got {other:?}"),
        }
        // Falling back is the operator's decision: delete the corrupt file.
        fs::remove_file(&newest).unwrap();
        assert_eq!(latest_snapshot(&dir).unwrap().unwrap().last_seq, 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_means_no_snapshot() {
        let dir = std::env::temp_dir().join(format!("sac_wal_absent_{}", std::process::id()));
        assert!(latest_snapshot(&dir).unwrap().is_none());
    }

    #[test]
    fn prune_keeps_the_newest() {
        let dir = temp_dir("prune");
        for seq in [1, 5, 9] {
            write_snapshot(&dir, &snapshot(seq)).unwrap();
        }
        prune_snapshots(&dir, 2);
        let latest = latest_snapshot(&dir).unwrap();
        assert_eq!(latest.unwrap().last_seq, 9);
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 2, "oldest pruned away: {names:?}");
        fs::remove_dir_all(&dir).ok();
    }
}
