//! The on-disk record codec.
//!
//! Every mutation of the store is one record appended to the active
//! segment:
//!
//! ```text
//! offset  bytes  field
//! 0       4      record magic "CZLR"
//! 4       4      record_len (u32 LE): bytes of body + trailer
//! 8       1      kind (1 = put, 2 = tombstone)
//! 9       1      flags (bit0 = scrub re-replication)
//! 10      2      key_len (u16 LE)
//! 12      2      shard_idx (u16 LE)
//! 14      8      total_len (u64 LE)   — whole-archive length
//! 22      8      archive_fnv (u64 LE) — whole-archive FNV-1a
//! 30      4      payload_len (u32 LE)
//! 34      …      key bytes (UTF-8)
//! …       …      payload bytes (the shard)
//! end-8   8      trailer: FNV-1a (u64 LE) over the body (offsets 8..end-8)
//! ```
//!
//! The trailer covers everything after `record_len`, so a bit flip
//! anywhere in a record — metadata or payload — fails verification and
//! the record degrades to a typed fault instead of serving wrong bytes.
//! Parsing is total: any byte sequence classifies as either a valid
//! record or exactly one [`RecordFault`]; nothing panics and nothing
//! allocates before the lengths have been bounds-checked.

use cuszp_metrics::fnv1a;

/// First four bytes of every record.
pub const RECORD_MAGIC: u32 = u32::from_le_bytes(*b"CZLR");

/// First four bytes of every segment file (followed by a format version
/// and the segment's sequence number).
pub const SEGMENT_MAGIC: u32 = u32::from_le_bytes(*b"CZLS");

/// Segment format version written by this crate.
pub const SEGMENT_VERSION: u32 = 1;

/// Bytes of the per-segment header: magic + version + seq.
pub const SEGMENT_HEADER_BYTES: usize = 4 + 4 + 8;

/// Bytes before the body: magic + record_len.
pub const RECORD_PREFIX_BYTES: usize = 8;

/// Fixed body bytes before the variable key/payload tail.
pub const BODY_FIXED_BYTES: usize = 1 + 1 + 2 + 2 + 8 + 8 + 4;

/// Trailer bytes (the FNV-1a checksum).
pub const TRAILER_BYTES: usize = 8;

/// Key length cap — matches the CSRP shard-key cap so any key the wire
/// accepts fits in a record.
pub const MAX_KEY_BYTES: usize = 4096;

/// Payload cap per record (mirrors the wire frame cap).
pub const MAX_PAYLOAD_BYTES: usize = 1 << 30;

/// Record flag: this put re-replicated a shard scrub found missing.
pub const FLAG_REPAIR: u8 = 0x01;

const KNOWN_FLAGS: u8 = FLAG_REPAIR;

/// What a record does to its `(key, shard_idx)` slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Stores shard bytes (overwriting any prior record for the slot).
    Put = 1,
    /// Deletes the slot; compaction drops both the tombstone and the
    /// records it shadows.
    Tombstone = 2,
}

/// One decoded record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub kind: RecordKind,
    pub flags: u8,
    pub key: String,
    pub shard_idx: u16,
    /// Length of the whole archive the stripe encodes (0 for tombstones).
    pub total_len: u64,
    /// FNV-1a of the whole archive (0 for tombstones).
    pub archive_fnv: u64,
    /// The shard bytes (empty for tombstones).
    pub payload: Vec<u8>,
}

/// Why a stretch of segment bytes is not a valid record. Every parse
/// failure maps to exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordFault {
    /// The bytes at this offset do not begin with the record magic.
    BadMagic,
    /// `record_len` is shorter than the smallest possible record or
    /// larger than the format allows — the header itself is damaged.
    ImplausibleLength,
    /// The record extends past the end of the segment (a torn write at
    /// the tail, or a corrupted length mid-log).
    TornRecord,
    /// Lengths are structurally inconsistent (key/payload lengths do
    /// not add up to `record_len`, unknown kind or flags).
    MalformedBody,
    /// The FNV-1a trailer does not match the body bytes.
    ChecksumMismatch,
    /// The key bytes are not UTF-8.
    BadKey,
}

impl std::fmt::Display for RecordFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RecordFault::BadMagic => "bad record magic",
            RecordFault::ImplausibleLength => "implausible record length",
            RecordFault::TornRecord => "record torn at segment end",
            RecordFault::MalformedBody => "malformed record body",
            RecordFault::ChecksumMismatch => "record checksum mismatch",
            RecordFault::BadKey => "record key is not UTF-8",
        };
        f.write_str(s)
    }
}

impl Record {
    /// A put record.
    pub fn put(
        key: &str,
        shard_idx: u16,
        payload: &[u8],
        total_len: u64,
        archive_fnv: u64,
        repair: bool,
    ) -> Record {
        Record {
            kind: RecordKind::Put,
            flags: if repair { FLAG_REPAIR } else { 0 },
            key: key.to_string(),
            shard_idx,
            total_len,
            archive_fnv,
            payload: payload.to_vec(),
        }
    }

    /// A tombstone for the slot.
    pub fn tombstone(key: &str, shard_idx: u16) -> Record {
        Record {
            kind: RecordKind::Tombstone,
            flags: 0,
            key: key.to_string(),
            shard_idx,
            total_len: 0,
            archive_fnv: 0,
            payload: Vec::new(),
        }
    }

    /// Encoded size on disk: prefix + body + trailer.
    pub fn disk_len(&self) -> usize {
        RECORD_PREFIX_BYTES + BODY_FIXED_BYTES + self.key.len() + self.payload.len() + TRAILER_BYTES
    }

    /// Serializes the record into `out` (one contiguous append).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let body_len = BODY_FIXED_BYTES + self.key.len() + self.payload.len();
        let record_len = (body_len + TRAILER_BYTES) as u32;
        out.reserve(self.disk_len());
        out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        out.extend_from_slice(&record_len.to_le_bytes());
        let body_start = out.len();
        out.push(self.kind as u8);
        out.push(self.flags);
        out.extend_from_slice(&(self.key.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.shard_idx.to_le_bytes());
        out.extend_from_slice(&self.total_len.to_le_bytes());
        out.extend_from_slice(&self.archive_fnv.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(self.key.as_bytes());
        out.extend_from_slice(&self.payload);
        let trailer = fnv1a(&out[body_start..]);
        out.extend_from_slice(&trailer.to_le_bytes());
    }

    /// The record as a fresh byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

/// Outcome of parsing the bytes at one record boundary.
#[derive(Debug)]
pub enum Parsed {
    /// A valid record occupying `disk_len` bytes.
    Ok { record: Record, disk_len: usize },
    /// No valid record here; `skip` is the parser's best guess at how
    /// many bytes to advance before trying again (0 means "resync by
    /// scanning for the next magic").
    Fault { fault: RecordFault, skip: usize },
}

/// Parses one record at the start of `bytes` (typically a suffix of a
/// segment). Total: never panics, never allocates unless the checksum
/// has already validated the lengths it allocates for.
pub fn parse_record(bytes: &[u8]) -> Parsed {
    if bytes.len() < RECORD_PREFIX_BYTES {
        return Parsed::Fault {
            fault: RecordFault::TornRecord,
            skip: bytes.len(),
        };
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    if magic != RECORD_MAGIC {
        return Parsed::Fault {
            fault: RecordFault::BadMagic,
            skip: 0,
        };
    }
    let record_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let min_len = BODY_FIXED_BYTES + TRAILER_BYTES;
    let max_len = BODY_FIXED_BYTES + MAX_KEY_BYTES + MAX_PAYLOAD_BYTES + TRAILER_BYTES;
    if !(min_len..=max_len).contains(&record_len) {
        return Parsed::Fault {
            fault: RecordFault::ImplausibleLength,
            skip: 0,
        };
    }
    if bytes.len() < RECORD_PREFIX_BYTES + record_len {
        return Parsed::Fault {
            fault: RecordFault::TornRecord,
            skip: bytes.len(),
        };
    }
    let body = &bytes[RECORD_PREFIX_BYTES..RECORD_PREFIX_BYTES + record_len - TRAILER_BYTES];
    let trailer_at = RECORD_PREFIX_BYTES + record_len - TRAILER_BYTES;
    let stored = u64::from_le_bytes(bytes[trailer_at..trailer_at + 8].try_into().unwrap());
    if fnv1a(body) != stored {
        // The length fields are covered by the (failed) checksum, so the
        // skip distance cannot be trusted either — but a wrong skip only
        // costs a magic-resync, while a right one recovers alignment.
        return Parsed::Fault {
            fault: RecordFault::ChecksumMismatch,
            skip: RECORD_PREFIX_BYTES + record_len,
        };
    }
    // Checksum holds: the body is exactly what was written. Structural
    // inconsistencies past this point mean the *writer* was broken.
    let kind = match body[0] {
        1 => RecordKind::Put,
        2 => RecordKind::Tombstone,
        _ => {
            return Parsed::Fault {
                fault: RecordFault::MalformedBody,
                skip: RECORD_PREFIX_BYTES + record_len,
            }
        }
    };
    let flags = body[1];
    let key_len = u16::from_le_bytes(body[2..4].try_into().unwrap()) as usize;
    let shard_idx = u16::from_le_bytes(body[4..6].try_into().unwrap());
    let total_len = u64::from_le_bytes(body[6..14].try_into().unwrap());
    let archive_fnv = u64::from_le_bytes(body[14..22].try_into().unwrap());
    let payload_len = u32::from_le_bytes(body[22..26].try_into().unwrap()) as usize;
    let malformed = Parsed::Fault {
        fault: RecordFault::MalformedBody,
        skip: RECORD_PREFIX_BYTES + record_len,
    };
    if flags & !KNOWN_FLAGS != 0
        || key_len > MAX_KEY_BYTES
        || payload_len > MAX_PAYLOAD_BYTES
        || BODY_FIXED_BYTES + key_len + payload_len != body.len()
        || (kind == RecordKind::Tombstone && payload_len != 0)
    {
        return malformed;
    }
    let key_bytes = &body[BODY_FIXED_BYTES..BODY_FIXED_BYTES + key_len];
    let Ok(key) = std::str::from_utf8(key_bytes) else {
        return Parsed::Fault {
            fault: RecordFault::BadKey,
            skip: RECORD_PREFIX_BYTES + record_len,
        };
    };
    Parsed::Ok {
        record: Record {
            kind,
            flags,
            key: key.to_string(),
            shard_idx,
            total_len,
            archive_fnv,
            payload: body[BODY_FIXED_BYTES + key_len..].to_vec(),
        },
        disk_len: RECORD_PREFIX_BYTES + record_len,
    }
}

/// Encodes a segment header for sequence number `seq`.
pub fn segment_header(seq: u64) -> [u8; SEGMENT_HEADER_BYTES] {
    let mut h = [0u8; SEGMENT_HEADER_BYTES];
    h[0..4].copy_from_slice(&SEGMENT_MAGIC.to_le_bytes());
    h[4..8].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&seq.to_le_bytes());
    h
}

/// Validates a segment header, returning the sequence number it claims.
pub fn parse_segment_header(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < SEGMENT_HEADER_BYTES {
        return None;
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if magic != SEGMENT_MAGIC || version != SEGMENT_VERSION {
        return None;
    }
    Some(u64::from_le_bytes(bytes[8..16].try_into().unwrap()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_round_trips() {
        let r = Record::put(
            "climate/arch-7",
            3,
            b"shard bytes here",
            123_456,
            0xABCD,
            true,
        );
        let bytes = r.encode();
        assert_eq!(bytes.len(), r.disk_len());
        match parse_record(&bytes) {
            Parsed::Ok { record, disk_len } => {
                assert_eq!(record, r);
                assert_eq!(disk_len, bytes.len());
            }
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn tombstone_round_trips() {
        let r = Record::tombstone("k", 9);
        match parse_record(&r.encode()) {
            Parsed::Ok { record, .. } => assert_eq!(record, r),
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let r = Record::put("key", 0, b"payload", 7, 42, false);
        let clean = r.encode();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut damaged = clean.clone();
                damaged[byte] ^= 1 << bit;
                match parse_record(&damaged) {
                    Parsed::Ok { record, .. } => {
                        panic!("flip at byte {byte} bit {bit} parsed as valid: {record:?}")
                    }
                    Parsed::Fault { .. } => {}
                }
            }
        }
    }

    #[test]
    fn truncation_at_every_offset_is_torn_or_fault() {
        let r = Record::put("key", 1, &[0xAA; 64], 64, 1, false);
        let clean = r.encode();
        for cut in 0..clean.len() {
            match parse_record(&clean[..cut]) {
                Parsed::Ok { .. } => panic!("truncation to {cut} bytes parsed as valid"),
                Parsed::Fault { .. } => {}
            }
        }
    }

    #[test]
    fn segment_header_round_trips() {
        let h = segment_header(42);
        assert_eq!(parse_segment_header(&h), Some(42));
        let mut bad = h;
        bad[0] ^= 1;
        assert_eq!(parse_segment_header(&bad), None);
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        let mut state = 0x1234_5678_9ABC_DEFFu64;
        let mut rng = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for len in [0usize, 1, 7, 8, 9, 33, 256, 4096] {
            let bytes: Vec<u8> = (0..len).map(|_| rng() as u8).collect();
            let _ = parse_record(&bytes);
        }
    }
}
