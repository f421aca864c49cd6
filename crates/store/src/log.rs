//! [`LogStore`]: the durable log-structured shard store.
//!
//! ```text
//!  data-dir/
//!    MANIFEST          ← text manifest: active segment set + next seq
//!    seg-00000001.czl  ← [segment header][record][record]…  (sealed)
//!    seg-00000002.czl  ← …                                  (active, appended)
//! ```
//!
//! Every mutation appends one checksummed record to the active segment;
//! an in-memory index maps `(key, shard_idx)` to the newest record for
//! that slot. At boot the index is rebuilt by scanning every segment in
//! sequence order: a torn record at the active tail is truncated (the
//! crash window of an unsynced write), mid-log damage is skipped
//! per-record, and both surface as typed [`SegmentFault`]s in the
//! [`RecoveryReport`] — recovery never panics and never resurrects
//! bytes that fail their checksum.
//!
//! Overwrites and tombstones leave dead bytes behind; once the segment
//! set exceeds `compact_at` bytes and at least a quarter are dead,
//! compaction rewrites the live records into a fresh segment via
//! temp-file + rename + manifest swap, so a crash at any byte of the
//! compaction leaves either the old state or the new state — never a
//! mix.

use std::collections::{BTreeSet, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::record::{
    parse_record, parse_segment_header, segment_header, Parsed, Record, RecordFault, RecordKind,
    MAX_KEY_BYTES, MAX_PAYLOAD_BYTES, SEGMENT_HEADER_BYTES,
};
use crate::{FsyncPolicy, StoreConfig, StoreError};
use cuszp_metrics::fnv1a;

/// Cap on remembered *runtime* faults (rot found by `get`/`list` after
/// boot); the counter keeps counting past it.
const MAX_RUNTIME_FAULTS: usize = 256;

/// One stored shard, read back checksum-verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredShard {
    /// The shard bytes (RS-padded; `total_len` recovers the tail).
    pub bytes: Vec<u8>,
    /// FNV-1a of `bytes`.
    pub checksum: u64,
    /// Length of the whole archive the stripe encodes.
    pub total_len: u64,
    /// FNV-1a of the whole archive.
    pub archive_fnv: u64,
}

/// One index entry of a `verify_and_list` inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    pub key: String,
    pub shard_idx: u16,
    /// Shard length in bytes.
    pub len: u64,
    /// FNV-1a of the shard bytes (verified, possibly cached).
    pub checksum: u64,
    pub total_len: u64,
    pub archive_fnv: u64,
}

/// Typed damage found in the segment files — at boot or afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentFault {
    /// The active segment ended mid-record (the crash window); the tail
    /// was truncated back to the last whole record.
    TornTail { seq: u64, offset: u64, dropped: u64 },
    /// A record failed validation and was skipped; its slot degrades to
    /// the previous surviving record (or to missing).
    CorruptRecord {
        seq: u64,
        offset: u64,
        fault: RecordFault,
    },
    /// Bytes that parse as no record at all were skipped while hunting
    /// for the next record magic.
    ResyncSkip { seq: u64, offset: u64, skipped: u64 },
    /// A segment file's own header is damaged; its records were
    /// recovered by magic-scan.
    BadSegmentHeader { seq: u64 },
    /// The manifest names a segment that does not exist on disk.
    MissingSegment { seq: u64 },
    /// The manifest was missing or unreadable; the segment set was
    /// reconstructed from the directory listing.
    ManifestFallback,
}

impl std::fmt::Display for SegmentFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentFault::TornTail {
                seq,
                offset,
                dropped,
            } => write!(
                f,
                "seg-{seq}: torn tail at offset {offset} ({dropped} bytes truncated)"
            ),
            SegmentFault::CorruptRecord { seq, offset, fault } => {
                write!(f, "seg-{seq}: corrupt record at offset {offset}: {fault}")
            }
            SegmentFault::ResyncSkip {
                seq,
                offset,
                skipped,
            } => write!(
                f,
                "seg-{seq}: {skipped} unparseable bytes skipped at offset {offset}"
            ),
            SegmentFault::BadSegmentHeader { seq } => {
                write!(f, "seg-{seq}: damaged segment header")
            }
            SegmentFault::MissingSegment { seq } => {
                write!(f, "seg-{seq}: named by manifest but missing on disk")
            }
            SegmentFault::ManifestFallback => {
                write!(
                    f,
                    "manifest missing or unreadable; segments listed from directory"
                )
            }
        }
    }
}

/// What the boot scan found.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Segment files scanned.
    pub segments_scanned: u64,
    /// Valid records replayed (puts + tombstones, including superseded).
    pub records_replayed: u64,
    /// Live shards in the rebuilt index.
    pub live_shards: u64,
    /// Tombstones replayed.
    pub tombstones: u64,
    /// Bytes cut off the active tail (torn final write).
    pub truncated_tail_bytes: u64,
    /// Every typed fault, in scan order.
    pub faults: Vec<SegmentFault>,
}

impl RecoveryReport {
    /// True when the log replayed without a single fault.
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty()
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "clean: {} live shard(s) from {} record(s) in {} segment(s)",
                self.live_shards, self.records_replayed, self.segments_scanned
            )
        } else {
            write!(
                f,
                "{} fault(s): {} live shard(s) from {} record(s) in {} segment(s), {} tail byte(s) truncated",
                self.faults.len(),
                self.live_shards,
                self.records_replayed,
                self.segments_scanned,
                self.truncated_tail_bytes
            )
        }
    }
}

#[derive(Debug, Clone)]
struct IndexEntry {
    seq: u64,
    /// Byte offset of the record start within its segment file.
    offset: u64,
    /// Whole-record bytes on disk.
    disk_len: u32,
    payload_len: u32,
    /// FNV-1a of the payload, captured at write or last verification.
    payload_fnv: u64,
    total_len: u64,
    archive_fnv: u64,
    /// Whether the on-disk bytes have been checksum-verified since the
    /// record was written. Cleared on write, set by boot scan, `get`,
    /// and `verify_and_list` — the cache that keeps repeated scrubs
    /// O(index) instead of O(total bytes).
    verified: bool,
}

/// The durable shard store. Single-writer: callers serialize access
/// (the server wraps it in a mutex).
#[derive(Debug)]
pub struct LogStore {
    dir: PathBuf,
    fsync: FsyncPolicy,
    compact_at: u64,
    active: File,
    active_seq: u64,
    active_len: u64,
    next_seq: u64,
    unsynced: u64,
    segments: BTreeSet<u64>,
    readers: HashMap<u64, File>,
    index: HashMap<(String, u16), IndexEntry>,
    /// Total bytes across all segment files (headers included).
    total_bytes: u64,
    /// Bytes belonging to superseded/tombstoned/corrupt records.
    dead_bytes: u64,
    recovery: RecoveryReport,
    runtime_faults: Vec<SegmentFault>,
    corrupt_dropped: u64,
    compactions: u64,
}

fn io_err(path: &Path, err: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        err,
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:08}.czl"))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

/// Parses `seg-<n>.czl` file names (zero padding optional).
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".czl")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Best-effort directory fsync so renames and deletions are durable.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Reads a whole file with a fallible reservation.
pub(crate) fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
    let mut f = File::open(path).map_err(|e| io_err(path, e))?;
    let len = f
        .metadata()
        .map_err(|e| io_err(path, e))?
        .len()
        .min(usize::MAX as u64) as usize;
    let mut buf = Vec::new();
    buf.try_reserve_exact(len)
        .map_err(|_| StoreError::Alloc { bytes: len })?;
    f.read_to_end(&mut buf).map_err(|e| io_err(path, e))?;
    Ok(buf)
}

/// Writes `bytes` to `path.tmp` then renames over `path` — the atomic
/// swap used for the manifest and compacted segments.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension(match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{ext}.tmp"),
        None => "tmp".to_string(),
    });
    let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    f.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
    f.sync_all().map_err(|e| io_err(&tmp, e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        io_err(path, e)
    })?;
    if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
    Ok(())
}

/// The manifest: a tiny text file naming the authoritative segment set.
/// Written atomically; parsed defensively (any irregularity falls back
/// to the directory listing, which is always safe because sequence
/// numbers order replay).
fn encode_manifest(segments: &BTreeSet<u64>, next_seq: u64) -> String {
    let list: Vec<String> = segments.iter().map(|s| s.to_string()).collect();
    format!(
        "czl-manifest 1\nsegments {}\nnext {}\n",
        list.join(" "),
        next_seq
    )
}

pub(crate) fn parse_manifest(text: &str) -> Option<(BTreeSet<u64>, u64)> {
    let mut lines = text.lines();
    if lines.next()? != "czl-manifest 1" {
        return None;
    }
    let seg_line = lines.next()?.strip_prefix("segments")?;
    let mut segments = BTreeSet::new();
    for tok in seg_line.split_whitespace() {
        segments.insert(tok.parse().ok()?);
    }
    let next: u64 = lines.next()?.strip_prefix("next ")?.trim().parse().ok()?;
    if segments.iter().max().is_some_and(|&m| m >= next) {
        return None;
    }
    Some((segments, next))
}

/// One valid record located during a segment scan.
pub(crate) struct ScannedRecord {
    pub offset: u64,
    pub disk_len: u32,
    pub record: Record,
}

/// Everything a single segment scan produces. Shared by boot recovery
/// and the offline fsck scanner so the two cannot disagree about what
/// survives.
pub(crate) struct SegmentScan {
    pub records: Vec<ScannedRecord>,
    pub faults: Vec<SegmentFault>,
    /// Where the valid prefix ends. When `torn` is set, bytes past this
    /// offset belong to a torn tail write.
    pub good_end: u64,
    pub torn: bool,
}

/// Walks one segment's bytes, collecting valid records and typed
/// faults. `header_ok` is false when the caller already found the
/// segment header damaged (records are then recovered by magic-scan).
pub(crate) fn scan_segment(seq: u64, bytes: &[u8], header_ok: bool) -> SegmentScan {
    let mut records = Vec::new();
    let mut faults = Vec::new();
    if !header_ok {
        faults.push(SegmentFault::BadSegmentHeader { seq });
    }
    let mut off = if header_ok { SEGMENT_HEADER_BYTES } else { 0 };
    let mut good_end = off as u64;
    let mut torn = false;
    while off < bytes.len() {
        match parse_record(&bytes[off..]) {
            Parsed::Ok { record, disk_len } => {
                records.push(ScannedRecord {
                    offset: off as u64,
                    disk_len: disk_len as u32,
                    record,
                });
                off += disk_len;
                good_end = off as u64;
            }
            Parsed::Fault {
                fault: RecordFault::TornRecord,
                ..
            } => {
                // The record extends past EOF: the torn-write crash
                // window (or a corrupt length that points past the end
                // — indistinguishable, handled the same way).
                faults.push(SegmentFault::TornTail {
                    seq,
                    offset: off as u64,
                    dropped: (bytes.len() - off) as u64,
                });
                torn = true;
                break;
            }
            Parsed::Fault { fault, skip } if skip > 0 => {
                // Plausible length, failed verification: skip exactly
                // this record and keep scanning — mid-log damage stays
                // contained to the records it actually hit.
                faults.push(SegmentFault::CorruptRecord {
                    seq,
                    offset: off as u64,
                    fault,
                });
                off += skip;
                good_end = off as u64;
            }
            Parsed::Fault { .. } => {
                // No trustworthy length: resynchronize by scanning for
                // the next record magic.
                let magic = crate::record::RECORD_MAGIC.to_le_bytes();
                let from = off + 1;
                let next = bytes[from..]
                    .windows(4)
                    .position(|w| w == magic)
                    .map(|p| from + p);
                match next {
                    Some(n) => {
                        faults.push(SegmentFault::ResyncSkip {
                            seq,
                            offset: off as u64,
                            skipped: (n - off) as u64,
                        });
                        off = n;
                        good_end = off as u64;
                    }
                    None => {
                        faults.push(SegmentFault::TornTail {
                            seq,
                            offset: off as u64,
                            dropped: (bytes.len() - off) as u64,
                        });
                        torn = true;
                        break;
                    }
                }
            }
        }
    }
    SegmentScan {
        records,
        faults,
        good_end,
        torn,
    }
}

impl LogStore {
    /// Opens (or creates) the store, rebuilding the index by scanning
    /// every segment. Damage degrades to typed faults in the
    /// [`RecoveryReport`]; only environmental failures (I/O, allocation)
    /// are errors.
    pub fn open(config: StoreConfig) -> Result<LogStore, StoreError> {
        let dir = config.dir;
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let mut report = RecoveryReport::default();

        // Authoritative segment set: the manifest when it parses, the
        // directory listing otherwise. Replay order is by sequence
        // number either way, so the fallback is safe — at worst it
        // re-reads segments a crashed compaction already rewrote.
        let mut on_disk = BTreeSet::new();
        let entries = fs::read_dir(&dir).map_err(|e| io_err(&dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                // Leftover of a crashed atomic write: never authoritative.
                let _ = fs::remove_file(entry.path());
                continue;
            }
            if let Some(seq) = parse_segment_name(name) {
                on_disk.insert(seq);
            }
        }
        let manifest = fs::read_to_string(manifest_path(&dir))
            .ok()
            .and_then(|t| parse_manifest(&t));
        let (mut segments, mut next_seq) = match manifest {
            Some((listed, next)) => {
                let mut segs = BTreeSet::new();
                for &seq in &listed {
                    if on_disk.contains(&seq) {
                        segs.insert(seq);
                    } else {
                        report.faults.push(SegmentFault::MissingSegment { seq });
                    }
                }
                // Segments on disk but not in the manifest are leftovers
                // of a crashed compaction (renamed before the manifest
                // swap): the manifest is authoritative, drop them.
                for &seq in on_disk.difference(&listed) {
                    let _ = fs::remove_file(segment_path(&dir, seq));
                }
                (segs, next)
            }
            None => {
                if !on_disk.is_empty() {
                    report.faults.push(SegmentFault::ManifestFallback);
                }
                let next = on_disk.iter().max().map_or(1, |m| m + 1);
                (on_disk, next)
            }
        };

        // Replay every segment in sequence order.
        let mut index: HashMap<(String, u16), IndexEntry> = HashMap::new();
        let mut total_bytes = 0u64;
        let mut dead_bytes = 0u64;
        let segment_list: Vec<u64> = segments.iter().copied().collect();
        for (i, &seq) in segment_list.iter().enumerate() {
            let path = segment_path(&dir, seq);
            let bytes = read_file(&path)?;
            let header_ok = parse_segment_header(&bytes) == Some(seq);
            let scan = scan_segment(seq, &bytes, header_ok);
            report.segments_scanned += 1;
            for f in &scan.faults {
                if let SegmentFault::TornTail { dropped, .. } = f {
                    report.truncated_tail_bytes += dropped;
                }
            }
            report.faults.extend(scan.faults);
            let is_last = i == segment_list.len() - 1;
            let file_len = if scan.torn && is_last {
                // Truncate the crash window so the next append starts
                // at a clean record boundary.
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_err(&path, e))?;
                f.set_len(scan.good_end).map_err(|e| io_err(&path, e))?;
                f.sync_all().map_err(|e| io_err(&path, e))?;
                scan.good_end
            } else {
                bytes.len() as u64
            };
            total_bytes += file_len;
            for sr in scan.records {
                report.records_replayed += 1;
                let slot = (sr.record.key.clone(), sr.record.shard_idx);
                let prior = match sr.record.kind {
                    RecordKind::Put => {
                        // Startup re-verifies checksums exactly like
                        // `list_shards`: the body hash already validated,
                        // so the payload FNV cached here is verified.
                        let payload_fnv = fnv1a(&sr.record.payload);
                        index.insert(
                            slot,
                            IndexEntry {
                                seq,
                                offset: sr.offset,
                                disk_len: sr.disk_len,
                                payload_len: sr.record.payload.len() as u32,
                                payload_fnv,
                                total_len: sr.record.total_len,
                                archive_fnv: sr.record.archive_fnv,
                                verified: true,
                            },
                        )
                    }
                    RecordKind::Tombstone => {
                        report.tombstones += 1;
                        dead_bytes += sr.disk_len as u64;
                        index.remove(&slot)
                    }
                };
                if let Some(old) = prior {
                    dead_bytes += old.disk_len as u64;
                }
            }
        }
        report.live_shards = index.len() as u64;

        // Open (or create) the active segment — the highest sequence.
        let (active_seq, active) = match segments.iter().max().copied() {
            Some(seq) => {
                let path = segment_path(&dir, seq);
                let f = OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(|e| io_err(&path, e))?;
                (seq, f)
            }
            None => {
                let seq = next_seq;
                next_seq += 1;
                let path = segment_path(&dir, seq);
                let mut f = OpenOptions::new()
                    .create_new(true)
                    .append(true)
                    .open(&path)
                    .map_err(|e| io_err(&path, e))?;
                f.write_all(&segment_header(seq))
                    .map_err(|e| io_err(&path, e))?;
                f.sync_all().map_err(|e| io_err(&path, e))?;
                segments.insert(seq);
                total_bytes += SEGMENT_HEADER_BYTES as u64;
                (seq, f)
            }
        };
        let active_len = active
            .metadata()
            .map_err(|e| io_err(&segment_path(&dir, active_seq), e))?
            .len();
        // Normalize the manifest so the next boot needs no fallback.
        write_atomic(
            &manifest_path(&dir),
            encode_manifest(&segments, next_seq).as_bytes(),
        )?;

        Ok(LogStore {
            dir,
            fsync: config.fsync,
            compact_at: config.compact_at.max(1),
            active,
            active_seq,
            active_len,
            next_seq,
            unsynced: 0,
            segments,
            readers: HashMap::new(),
            index,
            total_bytes,
            dead_bytes,
            recovery: report,
            runtime_faults: Vec::new(),
            corrupt_dropped: 0,
            compactions: 0,
        })
    }

    /// What the boot scan found (torn tails, corrupt records, …).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Faults found *after* boot by checksum-gated reads.
    pub fn runtime_faults(&self) -> &[SegmentFault] {
        &self.runtime_faults
    }

    /// Records dropped as corrupt since open (boot faults not included).
    pub fn corrupt_dropped(&self) -> u64 {
        self.corrupt_dropped
    }

    /// Number of live shards.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no live shards.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total segment bytes on disk.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Bytes owned by superseded, tombstoned, or dropped records.
    pub fn dead_bytes(&self) -> u64 {
        self.dead_bytes
    }

    /// Compactions run since open.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Active segment count (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    fn push_runtime_fault(&mut self, fault: SegmentFault) {
        if self.runtime_faults.len() < MAX_RUNTIME_FAULTS {
            self.runtime_faults.push(fault);
        }
    }

    /// Rolls the active segment once it outgrows a quarter of the
    /// compaction budget, so compaction always has sealed segments to
    /// drop and no single segment grows unboundedly.
    fn roll_threshold(&self) -> u64 {
        (self.compact_at / 4).clamp(64 << 10, 64 << 20)
    }

    fn roll_active(&mut self) -> Result<(), StoreError> {
        self.active
            .sync_all()
            .map_err(|e| io_err(&segment_path(&self.dir, self.active_seq), e))?;
        let seq = self.next_seq;
        self.next_seq += 1;
        let path = segment_path(&self.dir, seq);
        let mut f = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        f.write_all(&segment_header(seq))
            .map_err(|e| io_err(&path, e))?;
        f.sync_all().map_err(|e| io_err(&path, e))?;
        self.segments.insert(seq);
        self.total_bytes += SEGMENT_HEADER_BYTES as u64;
        self.active = f;
        self.active_seq = seq;
        self.active_len = SEGMENT_HEADER_BYTES as u64;
        self.unsynced = 0;
        write_atomic(
            &manifest_path(&self.dir),
            encode_manifest(&self.segments, self.next_seq).as_bytes(),
        )
    }

    /// Appends one encoded record to the active segment and applies the
    /// fsync policy. Returns `(seq, offset)` of the record start.
    fn append(&mut self, encoded: &[u8]) -> Result<(u64, u64), StoreError> {
        if self.active_len >= self.roll_threshold() {
            self.roll_active()?;
        }
        let path = segment_path(&self.dir, self.active_seq);
        let offset = self.active_len;
        self.active
            .write_all(encoded)
            .map_err(|e| io_err(&path, e))?;
        self.active_len += encoded.len() as u64;
        self.total_bytes += encoded.len() as u64;
        self.unsynced += encoded.len() as u64;
        let sync = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryNBytes(n) => self.unsynced >= n,
            FsyncPolicy::Never => false,
        };
        if sync {
            self.active.sync_data().map_err(|e| io_err(&path, e))?;
            self.unsynced = 0;
        }
        Ok((self.active_seq, offset))
    }

    /// Inserts (or replaces) a stripe slot durably. `repair` marks a
    /// scrub re-replication in the record's flags.
    pub fn put(
        &mut self,
        key: &str,
        shard_idx: u16,
        bytes: &[u8],
        total_len: u64,
        archive_fnv: u64,
        repair: bool,
    ) -> Result<(), StoreError> {
        if key.len() > MAX_KEY_BYTES {
            return Err(StoreError::KeyTooLong { len: key.len() });
        }
        if bytes.len() > MAX_PAYLOAD_BYTES {
            return Err(StoreError::PayloadTooLarge { len: bytes.len() });
        }
        let record = Record::put(key, shard_idx, bytes, total_len, archive_fnv, repair);
        let mut encoded = Vec::new();
        encoded
            .try_reserve_exact(record.disk_len())
            .map_err(|_| StoreError::Alloc {
                bytes: record.disk_len(),
            })?;
        record.encode_into(&mut encoded);
        let payload_fnv = fnv1a(bytes);
        let (seq, offset) = self.append(&encoded)?;
        let old = self.index.insert(
            (key.to_string(), shard_idx),
            IndexEntry {
                seq,
                offset,
                disk_len: encoded.len() as u32,
                payload_len: bytes.len() as u32,
                payload_fnv,
                total_len,
                archive_fnv,
                // A write invalidates the cached verification: the next
                // inventory re-reads this record once, then re-caches.
                verified: false,
            },
        );
        if let Some(old) = old {
            self.dead_bytes += old.disk_len as u64;
        }
        self.maybe_compact()
    }

    /// Deletes a stripe slot by appending a tombstone. Deleting an
    /// absent slot is a no-op (no tombstone written).
    pub fn delete(&mut self, key: &str, shard_idx: u16) -> Result<(), StoreError> {
        let Some(old) = self.index.remove(&(key.to_string(), shard_idx)) else {
            return Ok(());
        };
        let encoded = Record::tombstone(key, shard_idx).encode();
        let tomb_len = encoded.len() as u64;
        self.append(&encoded)?;
        self.dead_bytes += old.disk_len as u64 + tomb_len;
        self.maybe_compact()
    }

    /// Reads one record's bytes back from its segment file.
    fn read_record_bytes(&mut self, entry: &IndexEntry) -> Result<Vec<u8>, StoreError> {
        let path = segment_path(&self.dir, entry.seq);
        let f = match self.readers.entry(entry.seq) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(File::open(&path).map_err(|e| io_err(&path, e))?)
            }
        };
        f.seek(SeekFrom::Start(entry.offset))
            .map_err(|e| io_err(&path, e))?;
        let len = entry.disk_len as usize;
        let mut buf = Vec::new();
        buf.try_reserve_exact(len)
            .map_err(|_| StoreError::Alloc { bytes: len })?;
        buf.resize(len, 0);
        f.read_exact(&mut buf).map_err(|e| io_err(&path, e))?;
        Ok(buf)
    }

    /// Re-reads and verifies the record behind an index entry. Returns
    /// the payload when everything checks out; `None` drops the entry
    /// (rot: counted, typed fault recorded, slot degrades to missing so
    /// anti-entropy re-replicates it).
    fn verified_payload(
        &mut self,
        key: &str,
        shard_idx: u16,
        entry: &IndexEntry,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        let bytes = self.read_record_bytes(entry)?;
        let parsed = parse_record(&bytes);
        let payload = match parsed {
            Parsed::Ok { record, .. }
                if record.kind == RecordKind::Put
                    && record.key == key
                    && record.shard_idx == shard_idx
                    && fnv1a(&record.payload) == entry.payload_fnv =>
            {
                Some(record.payload)
            }
            Parsed::Ok { .. } => None, // index points at the wrong record
            Parsed::Fault { fault, .. } => {
                self.push_runtime_fault(SegmentFault::CorruptRecord {
                    seq: entry.seq,
                    offset: entry.offset,
                    fault,
                });
                None
            }
        };
        if payload.is_none() {
            self.index.remove(&(key.to_string(), shard_idx));
            self.dead_bytes += entry.disk_len as u64;
            self.corrupt_dropped += 1;
        }
        Ok(payload)
    }

    /// Fetches a stripe slot, checksum-gated: the record is re-read and
    /// verified against its trailer before a byte is returned, so a
    /// rotted shard surfaces as `None` (plus a typed fault), never as
    /// corrupt data.
    pub fn get(&mut self, key: &str, shard_idx: u16) -> Result<Option<StoredShard>, StoreError> {
        let Some(entry) = self.index.get(&(key.to_string(), shard_idx)).cloned() else {
            return Ok(None);
        };
        match self.verified_payload(key, shard_idx, &entry)? {
            Some(payload) => {
                if let Some(e) = self.index.get_mut(&(key.to_string(), shard_idx)) {
                    e.verified = true;
                }
                Ok(Some(StoredShard {
                    bytes: payload,
                    checksum: entry.payload_fnv,
                    total_len: entry.total_len,
                    archive_fnv: entry.archive_fnv,
                }))
            }
            None => Ok(None),
        }
    }

    /// Verifies every not-yet-verified record, drops rot (counted), and
    /// lists the survivors sorted by `(key, shard_idx)`. Entries whose
    /// verification is cached are listed without touching the disk, so
    /// repeated inventories of an unchanged node are O(index).
    pub fn verify_and_list(&mut self) -> Result<(Vec<ShardEntry>, u64), StoreError> {
        let unverified: Vec<(String, u16)> = self
            .index
            .iter()
            .filter(|(_, e)| !e.verified)
            .map(|(k, _)| k.clone())
            .collect();
        let mut dropped = 0u64;
        for (key, idx) in unverified {
            let entry = self.index[&(key.clone(), idx)].clone();
            match self.verified_payload(&key, idx, &entry)? {
                Some(_) => {
                    if let Some(e) = self.index.get_mut(&(key.clone(), idx)) {
                        e.verified = true;
                    }
                }
                None => dropped += 1,
            }
        }
        let mut entries: Vec<ShardEntry> = self
            .index
            .iter()
            .map(|((key, idx), e)| ShardEntry {
                key: key.clone(),
                shard_idx: *idx,
                len: e.payload_len as u64,
                checksum: e.payload_fnv,
                total_len: e.total_len,
                archive_fnv: e.archive_fnv,
            })
            .collect();
        entries.sort_by(|a, b| a.key.cmp(&b.key).then(a.shard_idx.cmp(&b.shard_idx)));
        Ok((entries, dropped))
    }

    fn maybe_compact(&mut self) -> Result<(), StoreError> {
        if self.total_bytes >= self.compact_at && self.dead_bytes * 4 >= self.total_bytes {
            self.compact_now()?;
        }
        Ok(())
    }

    /// Rewrites every live record into a fresh segment and swaps it in
    /// atomically: temp file → fsync → rename → manifest swap → old
    /// segments deleted. A crash at any point leaves a state the next
    /// boot reads correctly (the manifest decides which set is live; a
    /// renamed-but-unreferenced segment is garbage-collected, and the
    /// compacted segment's higher sequence number makes replay converge
    /// even from a directory-listing fallback).
    pub fn compact_now(&mut self) -> Result<(), StoreError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let final_path = segment_path(&self.dir, seq);
        let tmp = self.dir.join(format!("seg-{seq:08}.czl.tmp"));

        // Stable rewrite order so compaction output is deterministic.
        let mut slots: Vec<(String, u16)> = self.index.keys().cloned().collect();
        slots.sort();

        let mut out = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        out.write_all(&segment_header(seq))
            .map_err(|e| io_err(&tmp, e))?;
        let mut new_index: HashMap<(String, u16), IndexEntry> = HashMap::new();
        let mut offset = SEGMENT_HEADER_BYTES as u64;
        for (key, idx) in slots {
            let entry = self.index[&(key.clone(), idx)].clone();
            // Verification rides along for free: a record that rotted in
            // place is dropped here (typed fault already recorded) rather
            // than propagated into the fresh segment.
            let Some(payload) = self.verified_payload(&key, idx, &entry)? else {
                continue;
            };
            let record = Record {
                kind: RecordKind::Put,
                flags: 0,
                key: key.clone(),
                shard_idx: idx,
                total_len: entry.total_len,
                archive_fnv: entry.archive_fnv,
                payload,
            };
            let encoded = record.encode();
            out.write_all(&encoded).map_err(|e| io_err(&tmp, e))?;
            new_index.insert(
                (key, idx),
                IndexEntry {
                    seq,
                    offset,
                    disk_len: encoded.len() as u32,
                    payload_len: entry.payload_len,
                    payload_fnv: entry.payload_fnv,
                    total_len: entry.total_len,
                    archive_fnv: entry.archive_fnv,
                    verified: true,
                },
            );
            offset += encoded.len() as u64;
        }
        out.sync_all().map_err(|e| io_err(&tmp, e))?;
        drop(out);
        fs::rename(&tmp, &final_path).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            io_err(&final_path, e)
        })?;
        sync_dir(&self.dir);

        let old_segments: Vec<u64> = self.segments.iter().copied().collect();
        self.segments = BTreeSet::from([seq]);
        write_atomic(
            &manifest_path(&self.dir),
            encode_manifest(&self.segments, self.next_seq).as_bytes(),
        )?;
        for old in old_segments {
            let _ = fs::remove_file(segment_path(&self.dir, old));
        }
        sync_dir(&self.dir);
        self.readers.clear();
        self.index = new_index;
        self.active = OpenOptions::new()
            .append(true)
            .open(&final_path)
            .map_err(|e| io_err(&final_path, e))?;
        self.active_seq = seq;
        self.active_len = offset;
        self.total_bytes = offset;
        self.dead_bytes = 0;
        self.unsynced = 0;
        self.compactions += 1;
        Ok(())
    }

    /// Flushes the active segment to stable storage regardless of the
    /// fsync policy.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.active
            .sync_data()
            .map_err(|e| io_err(&segment_path(&self.dir, self.active_seq), e))?;
        self.unsynced = 0;
        Ok(())
    }

    /// Drops every slot *and every segment file* — the wiped-disk test
    /// hook. The store comes back empty and usable.
    pub fn clear(&mut self) -> Result<(), StoreError> {
        self.readers.clear();
        for &seq in &self.segments.clone() {
            let _ = fs::remove_file(segment_path(&self.dir, seq));
        }
        let _ = fs::remove_file(manifest_path(&self.dir));
        sync_dir(&self.dir);
        self.index.clear();
        self.segments.clear();
        self.total_bytes = 0;
        self.dead_bytes = 0;
        let seq = self.next_seq;
        self.next_seq += 1;
        let path = segment_path(&self.dir, seq);
        let mut f = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        f.write_all(&segment_header(seq))
            .map_err(|e| io_err(&path, e))?;
        f.sync_all().map_err(|e| io_err(&path, e))?;
        self.segments.insert(seq);
        self.active = f;
        self.active_seq = seq;
        self.active_len = SEGMENT_HEADER_BYTES as u64;
        self.total_bytes = SEGMENT_HEADER_BYTES as u64;
        self.unsynced = 0;
        write_atomic(
            &manifest_path(&self.dir),
            encode_manifest(&self.segments, self.next_seq).as_bytes(),
        )
    }
}

impl Drop for LogStore {
    fn drop(&mut self) {
        // Best-effort final flush; the recovery scan covers the rest.
        let _ = self.active.sync_data();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("cuszp-store-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config(dir: &Path) -> StoreConfig {
        StoreConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Never,
            compact_at: 1 << 20,
        }
    }

    #[test]
    fn put_get_roundtrip_and_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let mut s = LogStore::open(config(&dir)).unwrap();
            s.put("a", 0, b"hello", 5, 42, false).unwrap();
            s.put("a", 1, b"world", 5, 42, false).unwrap();
            let got = s.get("a", 1).unwrap().unwrap();
            assert_eq!(got.bytes, b"world");
            assert_eq!(got.total_len, 5);
            assert_eq!(got.archive_fnv, 42);
            assert!(s.get("a", 2).unwrap().is_none());
            assert_eq!(s.len(), 2);
        }
        // Everything survives a clean reopen.
        let mut s = LogStore::open(config(&dir)).unwrap();
        assert!(s.recovery_report().is_clean(), "{}", s.recovery_report());
        assert_eq!(s.len(), 2);
        assert_eq!(s.get("a", 0).unwrap().unwrap().bytes, b"hello");
        assert_eq!(s.get("a", 1).unwrap().unwrap().bytes, b"world");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_and_tombstone_semantics_survive_reopen() {
        let dir = temp_dir("tombstone");
        {
            let mut s = LogStore::open(config(&dir)).unwrap();
            s.put("k", 0, b"old", 3, 1, false).unwrap();
            s.put("k", 0, b"newer", 5, 2, false).unwrap();
            s.put("gone", 1, b"bye", 3, 3, false).unwrap();
            s.delete("gone", 1).unwrap();
            s.delete("never-existed", 7).unwrap();
            assert_eq!(s.get("k", 0).unwrap().unwrap().bytes, b"newer");
            assert!(s.get("gone", 1).unwrap().is_none());
            assert_eq!(s.len(), 1);
        }
        let mut s = LogStore::open(config(&dir)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.get("k", 0).unwrap().unwrap().bytes, b"newer");
        assert!(s.get("gone", 1).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_and_list_is_sorted_and_caches_verification() {
        let dir = temp_dir("list");
        let mut s = LogStore::open(config(&dir)).unwrap();
        s.put("b", 1, b"x", 1, 0, false).unwrap();
        s.put("a", 2, b"y", 1, 0, false).unwrap();
        s.put("a", 0, b"z", 1, 0, false).unwrap();
        let (entries, dropped) = s.verify_and_list().unwrap();
        assert_eq!(dropped, 0);
        let order: Vec<(String, u16)> = entries
            .iter()
            .map(|e| (e.key.clone(), e.shard_idx))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a".to_string(), 0),
                ("a".to_string(), 2),
                ("b".to_string(), 1)
            ]
        );
        assert_eq!(entries[0].checksum, fnv1a(b"z"));
        // Second pass: everything cached, nothing dropped.
        let (entries2, dropped2) = s.verify_and_list().unwrap();
        assert_eq!(dropped2, 0);
        assert_eq!(entries, entries2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = temp_dir("torn");
        {
            let mut s = LogStore::open(config(&dir)).unwrap();
            s.put("whole", 0, &[7u8; 200], 200, 9, false).unwrap();
            s.put("torn", 0, &[8u8; 200], 200, 9, false).unwrap();
        }
        // Chop the last record mid-payload: the kill -9 crash window.
        let seg = segment_path(&dir, 1);
        let len = fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 60).unwrap();
        drop(f);

        let mut s = LogStore::open(config(&dir)).unwrap();
        let report = s.recovery_report().clone();
        assert_eq!(report.live_shards, 1);
        assert!(
            report
                .faults
                .iter()
                .any(|f| matches!(f, SegmentFault::TornTail { .. })),
            "expected a torn-tail fault, got {:?}",
            report.faults
        );
        assert_eq!(s.get("whole", 0).unwrap().unwrap().bytes, vec![7u8; 200]);
        assert!(s.get("torn", 0).unwrap().is_none());
        // The store is writable again after truncation.
        s.put("torn", 0, &[9u8; 50], 50, 9, false).unwrap();
        assert_eq!(s.get("torn", 0).unwrap().unwrap().bytes, vec![9u8; 50]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_bit_flip_skips_only_the_damaged_record() {
        let dir = temp_dir("flip");
        let first_end;
        {
            let mut s = LogStore::open(config(&dir)).unwrap();
            s.put("victim", 0, &[1u8; 300], 300, 1, false).unwrap();
            first_end = s.active_len;
            s.put("survivor", 0, &[2u8; 300], 300, 2, false).unwrap();
        }
        // Flip a payload bit inside the *first* record.
        let seg = segment_path(&dir, 1);
        let mut bytes = fs::read(&seg).unwrap();
        let mid = (SEGMENT_HEADER_BYTES as u64 + first_end) as usize / 2;
        bytes[mid] ^= 0x10;
        fs::write(&seg, &bytes).unwrap();

        let mut s = LogStore::open(config(&dir)).unwrap();
        assert!(
            s.get("victim", 0).unwrap().is_none(),
            "corrupt record must drop"
        );
        assert_eq!(
            s.get("survivor", 0).unwrap().unwrap().bytes,
            vec![2u8; 300],
            "record after the damage must survive bit-exact"
        );
        assert!(s
            .recovery_report()
            .faults
            .iter()
            .any(|f| matches!(f, SegmentFault::CorruptRecord { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_the_live_map_and_drops_dead_bytes() {
        let dir = temp_dir("compact");
        let mut s = LogStore::open(StoreConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            compact_at: 1 << 30, // no auto trigger; we call compact_now
        })
        .unwrap();
        for i in 0..20u16 {
            s.put("k", i, &vec![i as u8; 500], 500, i as u64, false)
                .unwrap();
        }
        for i in 0..10u16 {
            s.put("k", i, &vec![0xEEu8; 400], 400, 99, false).unwrap(); // overwrite
        }
        for i in 15..20u16 {
            s.delete("k", i).unwrap();
        }
        let (before, _) = s.verify_and_list().unwrap();
        let bytes_before = s.total_bytes();
        s.compact_now().unwrap();
        assert!(s.total_bytes() < bytes_before);
        assert_eq!(s.dead_bytes(), 0);
        assert_eq!(s.segment_count(), 1);
        let (after, dropped) = s.verify_and_list().unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(before, after, "compaction must not change the live map");
        // And the compacted state survives reopen.
        drop(s);
        let mut s = LogStore::open(config(&dir)).unwrap();
        assert!(s.recovery_report().is_clean());
        let (reopened, _) = s.verify_and_list().unwrap();
        assert_eq!(before, reopened);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_trigger_compacts_automatically() {
        let dir = temp_dir("autocompact");
        let mut s = LogStore::open(StoreConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            compact_at: 256 << 10,
        })
        .unwrap();
        // Overwrite one hot slot until the dead fraction trips the
        // trigger. 2000 × ~300 B ≈ 600 KiB of log, nearly all dead.
        for round in 0..2000u32 {
            s.put("hot", 0, &round.to_le_bytes().repeat(64), 256, 7, false)
                .unwrap();
        }
        assert!(s.compactions() > 0, "size trigger never fired");
        assert_eq!(s.len(), 1);
        let got = s.get("hot", 0).unwrap().unwrap();
        assert_eq!(got.bytes, 1999u32.to_le_bytes().repeat(64));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_roll_and_replay_in_order() {
        let dir = temp_dir("roll");
        let mut s = LogStore::open(StoreConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::EveryNBytes(1 << 20),
            compact_at: 1 << 30,
        })
        .unwrap();
        // roll threshold = clamp(2^30/4, 64 KiB, 64 MiB) — too big to
        // trip here, so force rolls directly to test multi-segment
        // replay.
        s.put("a", 0, &[1u8; 100], 100, 1, false).unwrap();
        s.roll_active().unwrap();
        s.put("a", 0, &[2u8; 100], 100, 2, false).unwrap();
        s.roll_active().unwrap();
        s.put("b", 0, &[3u8; 100], 100, 3, false).unwrap();
        assert_eq!(s.segment_count(), 3);
        drop(s);
        let mut s = LogStore::open(config(&dir)).unwrap();
        assert!(s.recovery_report().is_clean());
        assert_eq!(s.get("a", 0).unwrap().unwrap().bytes, vec![2u8; 100]);
        assert_eq!(s.get("b", 0).unwrap().unwrap().bytes, vec![3u8; 100]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_wipes_disk_and_store_stays_usable() {
        let dir = temp_dir("clear");
        let mut s = LogStore::open(config(&dir)).unwrap();
        s.put("a", 0, b"x", 1, 0, false).unwrap();
        s.clear().unwrap();
        assert!(s.is_empty());
        assert!(s.get("a", 0).unwrap().is_none());
        s.put("b", 0, b"y", 1, 0, false).unwrap();
        drop(s);
        let mut s = LogStore::open(config(&dir)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.get("b", 0).unwrap().unwrap().bytes, b"y");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_corruption_falls_back_to_directory_listing() {
        let dir = temp_dir("manifest");
        {
            let mut s = LogStore::open(config(&dir)).unwrap();
            s.put("a", 0, b"kept", 4, 1, false).unwrap();
        }
        fs::write(manifest_path(&dir), b"not a manifest at all").unwrap();
        let mut s = LogStore::open(config(&dir)).unwrap();
        assert!(s
            .recovery_report()
            .faults
            .iter()
            .any(|f| matches!(f, SegmentFault::ManifestFallback)));
        assert_eq!(s.get("a", 0).unwrap().unwrap().bytes, b"kept");
        let _ = fs::remove_dir_all(&dir);
    }
}
