//! # sac-wal
//!
//! Durable persistence for the workspace: an append-only, checksummed
//! **write-ahead log** of fact batches, periodic compacted **snapshots**,
//! and the serialization layer both share.  `sac-engine` builds crash
//! recovery (`Database::open`) on top; this crate owns everything that
//! touches disk and stays policy-free about *when* to write.
//!
//! ## The durability model
//!
//! The columnar storage layer ([`sac_storage`]) stores every tuple as a row
//! of `u32` codes into a **process-wide** term dictionary — a code is
//! meaningless outside the process that assigned it.  Durability therefore
//! ships two things together, always:
//!
//! * the appended **code rows** (cheap: four bytes per term occurrence), and
//! * the **dictionary delta** — the `(code, term)` assignments handed out
//!   since the previous record — so a later process can rebuild a
//!   translation table and re-encode under its own dictionary.
//!
//! A [`FactBatch`] is exactly that pair plus a monotone sequence number.
//! The log file is a magic header followed by length-prefixed,
//! FNV-1a-checksummed records (see [`log`] for the byte layout); a torn
//! final record — the expected artifact of a crash mid-append — is detected
//! by its checksum and truncated away on open.
//!
//! A [`Snapshot`] compacts the log: a full dump of the dictionary prefix,
//! every relation's code rows, the registered constraints, view
//! definitions and plan-cache fingerprints, plus the last WAL sequence
//! number it covers.  Snapshots are written atomically (temp file, fsync,
//! rename, directory fsync) and the WAL is truncated only afterwards, so a
//! crash between the two replays a harmless prefix twice — fact insertion
//! is set-semantic, so over-replay is idempotent.
//!
//! Queries, constraints and view definitions are persisted **structurally**
//! ([`QueryRepr`] / [`TgdRepr`] / [`ViewRepr`]), not as display text: the
//! display form of a variable (`?X`) does not re-parse, and lower-case
//! variable names would re-parse as constants.

mod codec;
pub mod log;
pub mod record;
pub mod snapshot;

pub use log::{LogReadOutcome, WalWriter};
pub use record::{
    AtomRepr, FactBatch, QueryRepr, RelationBatch, Snapshot, TermRepr, TgdRepr, ViewRepr,
};
pub use snapshot::{latest_snapshot, prune_snapshots, read_snapshot, write_snapshot};

use sac_common::SacError;
use std::fmt;

/// Result alias using [`WalError`].
pub type WalResult<T> = std::result::Result<T, WalError>;

/// Anything that can go wrong while persisting or recovering.
#[derive(Debug)]
pub enum WalError {
    /// The operating system refused a read/write/sync/rename.
    Io {
        /// What the layer was doing when the OS said no.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// On-disk bytes that pass framing but fail validation (bad magic, a
    /// dictionary gap, an impossible arity).  Torn *tails* are not errors —
    /// the log reader truncates them silently — this is for corruption the
    /// recovery layer cannot repair.
    Corrupt {
        /// What was wrong with the bytes.
        message: String,
    },
}

impl WalError {
    pub(crate) fn io(context: impl Into<String>, source: std::io::Error) -> WalError {
        WalError::Io {
            context: context.into(),
            source,
        }
    }

    pub(crate) fn corrupt(message: impl Into<String>) -> WalError {
        WalError::Corrupt {
            message: message.into(),
        }
    }
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { context, source } => write!(f, "{context}: {source}"),
            WalError::Corrupt { message } => write!(f, "corrupt persistence data: {message}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io { source, .. } => Some(source),
            WalError::Corrupt { .. } => None,
        }
    }
}

/// Every persistence failure reaches a `Database` caller as a
/// [`SacError::Persistence`] carrying this error's text.
impl From<WalError> for SacError {
    fn from(e: WalError) -> SacError {
        SacError::Persistence {
            message: e.to_string(),
        }
    }
}

/// When the WAL fsyncs (see [`DurabilityOptions::sync_mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// `fsync` after every appended record: an acknowledged append survives
    /// a machine crash, at the cost of one disk round-trip per batch.  The
    /// default.
    Always,
    /// Write without syncing: appends survive a *process* kill (the page
    /// cache persists them eventually) but a machine crash can lose the
    /// unsynced suffix.  The torn-tail truncation rule keeps recovery
    /// correct either way — what is lost is recent, never inconsistent.
    Never,
}

/// Durability knobs, fixed when a database is opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// fsync discipline for WAL appends.
    pub sync_mode: SyncMode,
    /// Write a compacted snapshot (and truncate the WAL) automatically
    /// every this many appended batches.  `0` disables automatic
    /// snapshots — the log grows until an explicit checkpoint.
    pub snapshot_every: usize,
}

impl Default for DurabilityOptions {
    fn default() -> DurabilityOptions {
        DurabilityOptions {
            sync_mode: SyncMode::Always,
            snapshot_every: 1024,
        }
    }
}
