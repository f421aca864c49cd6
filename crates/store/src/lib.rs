//! cuszp-store — a log-structured durable shard store for the cluster
//! tier.
//!
//! PR 9 gave every node an in-memory `ShardStore`: correct while the
//! process lives, empty after a restart, healed only by an operator
//! running `cluster-scrub`. This crate is the move from "fault-tolerant
//! while running" to "fault-tolerant across restarts": shards live in
//! append-only segment files of checksummed records, an in-memory index
//! is rebuilt by scanning the segments at boot, and a kill -9 at any
//! byte offset loses at most the tail record that was mid-write — never
//! a previously acknowledged one (under `FsyncPolicy::Always`).
//!
//! The layers:
//!
//! - [`record`]: the on-disk record codec —
//!   `[magic][record_len][kind flags key shard_idx meta payload][FNV-1a trailer]`,
//!   defensively parsed (allocation-guarded, every field bounds-checked,
//!   typed [`RecordFault`]s, never a panic on arbitrary bytes).
//! - [`log`]: [`LogStore`] — segment files `seg-<n>.czl`, the boot
//!   recovery scan (torn tails truncated with a typed report, mid-log
//!   corruption skipped per-record and counted), tombstones for
//!   delete/overwrite, size-triggered compaction that rewrites live
//!   records into a fresh segment behind an atomic temp+rename+manifest
//!   swap, and a configurable [`FsyncPolicy`].
//! - [`fsck`]: the offline scanner behind `cuszp store-fsck` — the same
//!   recovery rules as boot, run read-only, with a per-record report
//!   and the PR 4 exit-code taxonomy (0 clean / 1 repairable-via-scrub
//!   / 2 unreadable).
//!
//! Reads are checksum-gated end to end: `get` re-verifies the record
//! trailer before returning bytes, so a rotted record surfaces as
//! *missing* (plus a typed fault) and anti-entropy re-replicates it —
//! the store never serves corrupt bytes as valid. Verified payload
//! checksums are cached in the index, so repeated inventories
//! (`verify_and_list`) of an unchanged node are O(index), not
//! O(total bytes).
//!
//! Everything is std-only and single-writer: callers (the server) wrap
//! the store in a mutex; the store itself never spawns threads.

pub mod fsck;
pub mod log;
pub mod record;

pub use fsck::{scan_dir, DirReport, RecordStatus, SegmentReport};
pub use log::{LogStore, RecoveryReport, SegmentFault, ShardEntry, StoredShard};
pub use record::{Record, RecordFault, RecordKind, FLAG_REPAIR};

use std::path::PathBuf;

/// When appended records are flushed to stable storage.
///
/// `Always` is the durability contract the cluster smoke test relies on
/// (a `kill -9` after an acknowledged put must not lose the shard);
/// `EveryNBytes` trades a bounded recent-write window for write
/// throughput; `Never` leaves flushing to the OS entirely (crash
/// consistency is still guaranteed by the recovery scan — only
/// durability of recent writes is at risk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record.
    Always,
    /// `fsync` once at least this many bytes have been appended since
    /// the last sync (and on segment roll / compaction / drop).
    EveryNBytes(u64),
    /// Never `fsync` explicitly; the OS flushes when it pleases.
    Never,
}

impl FsyncPolicy {
    /// Parses a CLI spelling: `always`, `never`, or a byte count for
    /// [`FsyncPolicy::EveryNBytes`] (0 means `always`).
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => match other.parse::<u64>() {
                Ok(0) => Ok(FsyncPolicy::Always),
                Ok(n) => Ok(FsyncPolicy::EveryNBytes(n)),
                Err(_) => Err(format!(
                    "bad fsync policy '{other}' (always | never | <every-n-bytes>)"
                )),
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryNBytes(n) => write!(f, "every {n} bytes"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Configuration for a [`LogStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the segments and manifest. Created if absent.
    pub dir: PathBuf,
    /// Flush policy for appended records.
    pub fsync: FsyncPolicy,
    /// Compaction trigger: once the segment files exceed this many
    /// bytes *and* at least a quarter of them are dead (superseded or
    /// tombstoned), live records are rewritten into a fresh segment.
    pub compact_at: u64,
}

impl StoreConfig {
    /// Defaults: fsync always, compact at 256 MiB.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            compact_at: 256 << 20,
        }
    }
}

/// Typed store failures. Damage found inside segments is *not* an
/// error — it is reported through [`RecoveryReport`] / [`SegmentFault`]
/// and the affected records degrade to missing; `StoreError` is for
/// environmental failures the store cannot work around.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed; the path names the file involved.
    Io { path: String, err: std::io::Error },
    /// An allocation was refused (oversized record or scan buffer).
    Alloc { bytes: usize },
    /// The key exceeds [`record::MAX_KEY_BYTES`].
    KeyTooLong { len: usize },
    /// The payload exceeds [`record::MAX_PAYLOAD_BYTES`].
    PayloadTooLarge { len: usize },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, err } => write!(f, "{path}: {err}"),
            StoreError::Alloc { bytes } => write!(f, "allocation of {bytes} bytes refused"),
            StoreError::KeyTooLong { len } => write!(
                f,
                "key of {len} bytes exceeds the {} byte cap",
                record::MAX_KEY_BYTES
            ),
            StoreError::PayloadTooLarge { len } => write!(
                f,
                "payload of {len} bytes exceeds the {} byte cap",
                record::MAX_PAYLOAD_BYTES
            ),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses_all_spellings() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("1048576"),
            Ok(FsyncPolicy::EveryNBytes(1 << 20))
        );
        assert_eq!(FsyncPolicy::parse("0"), Ok(FsyncPolicy::Always));
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }
}
