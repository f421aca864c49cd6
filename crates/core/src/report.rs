//! Portable diagnosis reports: one serialization of the fsck/recovery
//! reports shared by every consumer.
//!
//! [`ScanReport`]/[`ChunkReport`]/[`ParityReport`] carry borrowed
//! `&'static str` fault text and `usize` ranges — fine in-process,
//! useless on a wire. [`PortableScanReport`] is their lossless owned
//! mirror with two stable encodings:
//!
//! * a **versioned binary** form ([`PortableScanReport::to_bytes`] /
//!   [`from_bytes`](PortableScanReport::from_bytes)) used by the CSRP
//!   protocol's `scan` and `decompress --recover` responses, parsed with
//!   the same allocation discipline as archive headers (`try_reserve`,
//!   counts bounded by bytes actually present);
//! * a **compact JSON** form ([`PortableScanReport::to_json_fields`])
//!   with the field names `cuszp fsck --json` committed to in PR 4.
//!
//! `cuszp fsck --json` and `cuszp remote scan --json` both render
//! through this module, so the shell format and the wire format cannot
//! drift apart.

use crate::error::{ArchiveSection, CuszpError};
use crate::recovery::{
    ChunkReport, ChunkStatus, ParityReport, RecoveredField, ScanReport, StripeStatus,
};
use crate::{CodecPlan, Dims, Dtype, LosslessStage, Predictor, Scalar};
use cuszp_analysis::WorkflowChoice;
use std::ops::Range;

/// Version tag leading every serialized report blob. Version 2 added the
/// optional per-chunk codec plan; version-1 blobs still parse (their
/// chunks carry no plan).
pub const REPORT_VERSION: u16 = 2;

fn err(what: &'static str, offset: usize) -> CuszpError {
    // Report blobs travel inside wire frames; there is no richer section
    // taxonomy than "this blob", so faults reuse the trailer section.
    CuszpError::malformed(what, ArchiveSection::Trailer, offset)
}

/// Owned mirror of [`ChunkStatus`] (fault text as `String`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortableChunkStatus {
    /// Chunk parsed, verified, and decoded as stored.
    Ok,
    /// Healed from Reed–Solomon parity; the global data-shard indices
    /// that were rewritten.
    Repaired {
        /// Healed global data-shard indices.
        shards: Vec<u64>,
    },
    /// Stored vs recomputed checksum disagreed.
    ChecksumMismatch {
        /// Stored checksum.
        expected: u64,
        /// Recomputed checksum.
        actual: u64,
        /// Container offset of the checksummed payload.
        offset: u64,
    },
    /// The container ends before the chunk's declared bytes.
    Truncated,
    /// Structurally invalid chunk bytes.
    Malformed {
        /// What the parser found wrong.
        what: String,
        /// Section name (see [`ArchiveSection::name`]).
        section: String,
        /// Container byte offset of the fault.
        offset: u64,
    },
}

impl PortableChunkStatus {
    /// Short display label, identical to [`ChunkStatus::label`].
    pub fn label(&self) -> &'static str {
        match self {
            PortableChunkStatus::Ok => "ok",
            PortableChunkStatus::Repaired { .. } => "repaired",
            PortableChunkStatus::ChecksumMismatch { .. } => "checksum",
            PortableChunkStatus::Truncated => "truncated",
            PortableChunkStatus::Malformed { .. } => "malformed",
        }
    }

    /// True when the chunk's data is available bit-exactly.
    pub fn is_recovered(&self) -> bool {
        matches!(
            self,
            PortableChunkStatus::Ok | PortableChunkStatus::Repaired { .. }
        )
    }
}

impl std::fmt::Display for PortableChunkStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortableChunkStatus::Ok => write!(f, "ok"),
            PortableChunkStatus::Repaired { shards } => {
                write!(f, "repaired from parity (data shards {shards:?})")
            }
            PortableChunkStatus::ChecksumMismatch {
                expected,
                actual,
                offset,
            } => write!(
                f,
                "checksum mismatch (stored {expected:#x}, computed {actual:#x}, payload @ byte {offset})"
            ),
            PortableChunkStatus::Truncated => write!(f, "truncated"),
            PortableChunkStatus::Malformed {
                what,
                section,
                offset,
            } => write!(f, "malformed: {what} [{section} @ byte {offset}]"),
        }
    }
}

/// Owned mirror of [`ChunkReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortableChunkReport {
    /// Chunk index in plan order.
    pub index: u64,
    /// Validation/decode outcome.
    pub status: PortableChunkStatus,
    /// Byte range of the chunk body inside the container, when locatable.
    pub byte_range: Option<Range<u64>>,
    /// Element range of the field slab this chunk covers.
    pub elem_range: Range<u64>,
    /// The chunk's recorded codec plan, when its header parsed (absent
    /// for damaged chunks and for version-1 report blobs).
    pub plan: Option<CodecPlan>,
}

/// Owned mirror of [`StripeStatus`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortableStripeStatus {
    /// Every shard verified.
    Intact,
    /// Healed within the erasure budget.
    Repaired {
        /// Global data-shard indices reconstructed from parity.
        data: Vec<u64>,
        /// Stripe-local indices of damaged parity shards.
        parity: Vec<u64>,
    },
    /// Damage beyond the erasure budget.
    Unrepairable {
        /// Global data-shard indices that failed their checksums.
        damaged_data: Vec<u64>,
        /// Surviving parity shards in the stripe.
        intact_parity: u64,
    },
}

/// Owned mirror of [`ParityReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortableParityReport {
    /// Data shards per stripe (`k`).
    pub data_shards: u16,
    /// Parity shards per stripe (`m`).
    pub parity_shards: u16,
    /// Bytes per shard.
    pub shard_size: u32,
    /// Stripes guarding the chunk region.
    pub n_stripes: u64,
    /// Status per stripe, in region order.
    pub stripes: Vec<PortableStripeStatus>,
}

/// Owned, serializable mirror of [`ScanReport`] — also the carrier for
/// `decompress --recover` per-chunk reports on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortableScanReport {
    /// Container format ("csz2" or "v1").
    pub format: String,
    /// Field dimensions, when the header parsed.
    pub dims: Option<Dims>,
    /// Element type, when the header parsed.
    pub dtype: Option<Dtype>,
    /// Chunk count the container header declares.
    pub declared_chunks: u64,
    /// One report per chunk, plan order.
    pub chunks: Vec<PortableChunkReport>,
    /// Stripe-level parity diagnosis, when present.
    pub parity: Option<PortableParityReport>,
}

fn portable_status(s: &ChunkStatus) -> PortableChunkStatus {
    match s {
        ChunkStatus::Ok => PortableChunkStatus::Ok,
        ChunkStatus::Repaired { shards } => PortableChunkStatus::Repaired {
            shards: shards.iter().map(|&x| x as u64).collect(),
        },
        ChunkStatus::ChecksumMismatch {
            expected,
            actual,
            offset,
        } => PortableChunkStatus::ChecksumMismatch {
            expected: *expected,
            actual: *actual,
            offset: *offset as u64,
        },
        ChunkStatus::Truncated => PortableChunkStatus::Truncated,
        ChunkStatus::Malformed(fault) => PortableChunkStatus::Malformed {
            what: fault.what.to_string(),
            section: fault.section.name().to_string(),
            offset: fault.offset as u64,
        },
    }
}

fn portable_chunks(reports: &[ChunkReport]) -> Vec<PortableChunkReport> {
    reports
        .iter()
        .map(|r| PortableChunkReport {
            index: r.index as u64,
            status: portable_status(&r.status),
            byte_range: r.byte_range.as_ref().map(|b| b.start as u64..b.end as u64),
            elem_range: r.elem_range.start as u64..r.elem_range.end as u64,
            plan: r.plan,
        })
        .collect()
}

fn portable_parity(p: &ParityReport) -> PortableParityReport {
    PortableParityReport {
        data_shards: p.data_shards,
        parity_shards: p.parity_shards,
        shard_size: p.shard_size,
        n_stripes: p.n_stripes as u64,
        stripes: p
            .stripes
            .iter()
            .map(|s| match s {
                StripeStatus::Intact => PortableStripeStatus::Intact,
                StripeStatus::Repaired { data, parity } => PortableStripeStatus::Repaired {
                    data: data.iter().map(|&x| x as u64).collect(),
                    parity: parity.iter().map(|&x| x as u64).collect(),
                },
                StripeStatus::Unrepairable {
                    damaged_data,
                    intact_parity,
                } => PortableStripeStatus::Unrepairable {
                    damaged_data: damaged_data.iter().map(|&x| x as u64).collect(),
                    intact_parity: *intact_parity as u64,
                },
            })
            .collect(),
    }
}

impl From<&ScanReport> for PortableScanReport {
    fn from(r: &ScanReport) -> Self {
        PortableScanReport {
            format: r.format.to_string(),
            dims: r.dims,
            dtype: r.dtype,
            declared_chunks: r.declared_chunks as u64,
            chunks: portable_chunks(&r.reports),
            parity: r.parity.as_ref().map(portable_parity),
        }
    }
}

impl PortableScanReport {
    /// Builds the report carried by a resilient-decompression response:
    /// the per-chunk and parity diagnosis of a [`RecoveredField`].
    pub fn from_recovered<T: Scalar>(rf: &RecoveredField<T>) -> Self {
        PortableScanReport {
            format: "csz2".to_string(),
            dims: Some(rf.dims),
            dtype: Some(Dtype::of::<T>()),
            declared_chunks: rf.reports.len() as u64,
            chunks: portable_chunks(&rf.reports),
            parity: rf.parity.as_ref().map(portable_parity),
        }
    }

    /// Chunks whose data is lost (neither intact nor healed).
    pub fn n_damaged(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| !c.status.is_recovered())
            .count()
    }

    /// Chunks healed from parity.
    pub fn n_repaired(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| matches!(c.status, PortableChunkStatus::Repaired { .. }))
            .count()
    }

    /// True when every stripe of the parity section (if any) verified.
    pub fn parity_intact(&self) -> bool {
        self.parity
            .as_ref()
            .is_none_or(|p| p.stripes.iter().all(|s| *s == PortableStripeStatus::Intact))
    }

    /// Plan mix across the archive's parseable chunks: `(label, count)`
    /// in first-occurrence order — the same aggregation
    /// [`crate::ChunkedStats::plan_mix`] reports at compression time.
    pub fn plan_mix(&self) -> Vec<(String, usize)> {
        let mut mix: Vec<(String, usize)> = Vec::new();
        for p in self.chunks.iter().filter_map(|c| c.plan) {
            let label = p.label();
            match mix.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += 1,
                None => mix.push((label, 1)),
            }
        }
        mix
    }

    /// The fsck exit-code contract applied to this report: 0 clean,
    /// 1 damage fully covered by parity, 2 data loss.
    pub fn exit_code(&self) -> u8 {
        if self.n_damaged() > 0 {
            2
        } else if self.n_repaired() > 0 || !self.parity_intact() {
            1
        } else {
            0
        }
    }
}

// ---------------------------------------------------------------------
// Versioned binary encoding.
// ---------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

fn put_u64s(out: &mut Vec<u8>, v: &[u64]) {
    out.extend_from_slice(&(v.len().min(u32::MAX as usize) as u32).to_le_bytes());
    for &x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_dims(out: &mut Vec<u8>, dims: Option<Dims>) {
    match dims {
        None => out.push(0),
        Some(Dims::D1(n)) => {
            out.push(1);
            out.extend_from_slice(&(n as u64).to_le_bytes());
        }
        Some(Dims::D2 { ny, nx }) => {
            out.push(2);
            out.extend_from_slice(&(ny as u64).to_le_bytes());
            out.extend_from_slice(&(nx as u64).to_le_bytes());
        }
        Some(Dims::D3 { nz, ny, nx }) => {
            out.push(3);
            out.extend_from_slice(&(nz as u64).to_le_bytes());
            out.extend_from_slice(&(ny as u64).to_le_bytes());
            out.extend_from_slice(&(nx as u64).to_le_bytes());
        }
    }
}

/// Serializes an optional codec plan: tag byte then, when present, the
/// predictor/workflow/lossless bytes (same value space as the archive
/// header's plan descriptor).
fn put_plan(out: &mut Vec<u8>, plan: Option<CodecPlan>) {
    match plan {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            out.push(match p.predictor {
                Predictor::Lorenzo => 0,
                Predictor::Interpolation => 1,
            });
            out.push(match p.workflow {
                WorkflowChoice::Huffman => 0,
                WorkflowChoice::Rle => 1,
                WorkflowChoice::RleVle => 2,
            });
            out.push(match p.lossless {
                LosslessStage::None => 0,
                LosslessStage::BitshuffleLz77 => 1,
            });
        }
    }
}

/// Bounded little-endian reader over a report blob. Every accessor
/// fails with a structured error instead of slicing past the end, and
/// collection counts are validated against the bytes actually present
/// before any allocation.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CuszpError> {
        if self.buf.len() - self.pos < n {
            return Err(err("report blob truncated", self.pos));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CuszpError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CuszpError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CuszpError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CuszpError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, CuszpError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| err("report string not UTF-8", self.pos))
    }

    fn u64s(&mut self) -> Result<Vec<u64>, CuszpError> {
        let n = self.u32()? as usize;
        // Each element takes 8 bytes: an inflated count cannot pass this
        // gate, so the reserve below is bounded by the blob size.
        if self.buf.len() - self.pos < n * 8 {
            return Err(err("report list count exceeds blob", self.pos));
        }
        let mut v = Vec::new();
        v.try_reserve_exact(n)
            .map_err(|_| err("report list allocation failed", self.pos))?;
        for _ in 0..n {
            v.push(self.u64()?);
        }
        Ok(v)
    }

    fn plan(&mut self) -> Result<Option<CodecPlan>, CuszpError> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let predictor = match self.u8()? {
                    0 => Predictor::Lorenzo,
                    1 => Predictor::Interpolation,
                    _ => return Err(err("bad plan predictor in report", self.pos)),
                };
                let workflow = match self.u8()? {
                    0 => WorkflowChoice::Huffman,
                    1 => WorkflowChoice::Rle,
                    2 => WorkflowChoice::RleVle,
                    _ => return Err(err("bad plan workflow in report", self.pos)),
                };
                let lossless = match self.u8()? {
                    0 => LosslessStage::None,
                    1 => LosslessStage::BitshuffleLz77,
                    _ => return Err(err("bad plan lossless in report", self.pos)),
                };
                Ok(Some(CodecPlan {
                    predictor,
                    workflow,
                    lossless,
                }))
            }
            _ => Err(err("bad plan tag in report", self.pos)),
        }
    }

    fn dims(&mut self) -> Result<Option<Dims>, CuszpError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(Dims::D1(self.u64()? as usize))),
            2 => Ok(Some(Dims::D2 {
                ny: self.u64()? as usize,
                nx: self.u64()? as usize,
            })),
            3 => Ok(Some(Dims::D3 {
                nz: self.u64()? as usize,
                ny: self.u64()? as usize,
                nx: self.u64()? as usize,
            })),
            _ => Err(err("bad dims rank in report", self.pos)),
        }
    }
}

impl PortableScanReport {
    /// Serializes to the stable binary form (leading [`REPORT_VERSION`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.chunks.len() * 48);
        out.extend_from_slice(&REPORT_VERSION.to_le_bytes());
        put_str(&mut out, &self.format);
        put_dims(&mut out, self.dims);
        out.push(match self.dtype {
            None => 0,
            Some(Dtype::F32) => 1,
            Some(Dtype::F64) => 2,
        });
        out.extend_from_slice(&self.declared_chunks.to_le_bytes());
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for c in &self.chunks {
            out.extend_from_slice(&c.index.to_le_bytes());
            match &c.byte_range {
                None => out.push(0),
                Some(r) => {
                    out.push(1);
                    out.extend_from_slice(&r.start.to_le_bytes());
                    out.extend_from_slice(&r.end.to_le_bytes());
                }
            }
            out.extend_from_slice(&c.elem_range.start.to_le_bytes());
            out.extend_from_slice(&c.elem_range.end.to_le_bytes());
            put_plan(&mut out, c.plan);
            match &c.status {
                PortableChunkStatus::Ok => out.push(0),
                PortableChunkStatus::Repaired { shards } => {
                    out.push(1);
                    put_u64s(&mut out, shards);
                }
                PortableChunkStatus::ChecksumMismatch {
                    expected,
                    actual,
                    offset,
                } => {
                    out.push(2);
                    out.extend_from_slice(&expected.to_le_bytes());
                    out.extend_from_slice(&actual.to_le_bytes());
                    out.extend_from_slice(&offset.to_le_bytes());
                }
                PortableChunkStatus::Truncated => out.push(3),
                PortableChunkStatus::Malformed {
                    what,
                    section,
                    offset,
                } => {
                    out.push(4);
                    put_str(&mut out, what);
                    put_str(&mut out, section);
                    out.extend_from_slice(&offset.to_le_bytes());
                }
            }
        }
        match &self.parity {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                out.extend_from_slice(&p.data_shards.to_le_bytes());
                out.extend_from_slice(&p.parity_shards.to_le_bytes());
                out.extend_from_slice(&p.shard_size.to_le_bytes());
                out.extend_from_slice(&p.n_stripes.to_le_bytes());
                out.extend_from_slice(&(p.stripes.len() as u32).to_le_bytes());
                for s in &p.stripes {
                    match s {
                        PortableStripeStatus::Intact => out.push(0),
                        PortableStripeStatus::Repaired { data, parity } => {
                            out.push(1);
                            put_u64s(&mut out, data);
                            put_u64s(&mut out, parity);
                        }
                        PortableStripeStatus::Unrepairable {
                            damaged_data,
                            intact_parity,
                        } => {
                            out.push(2);
                            put_u64s(&mut out, damaged_data);
                            out.extend_from_slice(&intact_parity.to_le_bytes());
                        }
                    }
                }
            }
        }
        out
    }

    /// Parses the binary form back. Untrusted input is safe: counts are
    /// bounded by the bytes present before any allocation, and every
    /// read is range-checked.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CuszpError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let version = r.u16()?;
        if !(1..=REPORT_VERSION).contains(&version) {
            return Err(CuszpError::UnsupportedVersion(version));
        }
        let format = r.str()?;
        let dims = r.dims()?;
        let dtype = match r.u8()? {
            0 => None,
            1 => Some(Dtype::F32),
            2 => Some(Dtype::F64),
            _ => return Err(err("bad dtype tag in report", r.pos)),
        };
        let declared_chunks = r.u64()?;
        let n_chunks = r.u32()? as usize;
        // A chunk report is at least 26 bytes (index + 2 option tags +
        // elem range + status tag); cap the reserve by what could fit.
        if bytes.len().saturating_sub(r.pos) < n_chunks.saturating_mul(26) {
            return Err(err("report chunk count exceeds blob", r.pos));
        }
        let mut chunks = Vec::new();
        chunks
            .try_reserve_exact(n_chunks)
            .map_err(|_| err("report chunk allocation failed", r.pos))?;
        for _ in 0..n_chunks {
            let index = r.u64()?;
            let byte_range = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?..r.u64()?),
                _ => return Err(err("bad byte-range tag in report", r.pos)),
            };
            let elem_range = r.u64()?..r.u64()?;
            // Version-1 chunk records carry no plan field.
            let plan = if version >= 2 { r.plan()? } else { None };
            let status = match r.u8()? {
                0 => PortableChunkStatus::Ok,
                1 => PortableChunkStatus::Repaired { shards: r.u64s()? },
                2 => PortableChunkStatus::ChecksumMismatch {
                    expected: r.u64()?,
                    actual: r.u64()?,
                    offset: r.u64()?,
                },
                3 => PortableChunkStatus::Truncated,
                4 => PortableChunkStatus::Malformed {
                    what: r.str()?,
                    section: r.str()?,
                    offset: r.u64()?,
                },
                _ => return Err(err("bad chunk status tag in report", r.pos)),
            };
            chunks.push(PortableChunkReport {
                index,
                status,
                byte_range,
                elem_range,
                plan,
            });
        }
        let parity = match r.u8()? {
            0 => None,
            1 => {
                let data_shards = r.u16()?;
                let parity_shards = r.u16()?;
                let shard_size = r.u32()?;
                let n_stripes = r.u64()?;
                let n = r.u32()? as usize;
                if bytes.len().saturating_sub(r.pos) < n {
                    return Err(err("report stripe count exceeds blob", r.pos));
                }
                let mut stripes = Vec::new();
                stripes
                    .try_reserve_exact(n)
                    .map_err(|_| err("report stripe allocation failed", r.pos))?;
                for _ in 0..n {
                    stripes.push(match r.u8()? {
                        0 => PortableStripeStatus::Intact,
                        1 => PortableStripeStatus::Repaired {
                            data: r.u64s()?,
                            parity: r.u64s()?,
                        },
                        2 => PortableStripeStatus::Unrepairable {
                            damaged_data: r.u64s()?,
                            intact_parity: r.u64()?,
                        },
                        _ => return Err(err("bad stripe status tag in report", r.pos)),
                    });
                }
                Some(PortableParityReport {
                    data_shards,
                    parity_shards,
                    shard_size,
                    n_stripes,
                    stripes,
                })
            }
            _ => return Err(err("bad parity tag in report", r.pos)),
        };
        if r.pos != bytes.len() {
            return Err(err("trailing bytes after report", r.pos));
        }
        Ok(PortableScanReport {
            format,
            dims,
            dtype,
            declared_chunks,
            chunks,
            parity,
        })
    }
}

// ---------------------------------------------------------------------
// Compact JSON — the field names `cuszp fsck --json` committed to.
// ---------------------------------------------------------------------

/// Escapes a string for embedding in a JSON literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_u64_list(v: &[u64]) -> String {
    let items: Vec<String> = v.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn json_dims(d: Dims) -> String {
    match d {
        Dims::D1(n) => format!("[{n}]"),
        Dims::D2 { ny, nx } => format!("[{ny},{nx}]"),
        Dims::D3 { nz, ny, nx } => format!("[{nz},{ny},{nx}]"),
    }
}

fn json_chunk(c: &PortableChunkReport) -> String {
    let (bs, be) = match &c.byte_range {
        Some(br) => (br.start.to_string(), br.end.to_string()),
        None => ("null".to_string(), "null".to_string()),
    };
    let shards = match &c.status {
        PortableChunkStatus::Repaired { shards } => json_u64_list(shards),
        _ => "[]".to_string(),
    };
    let plan = c
        .plan
        .map_or("null".to_string(), |p| format!("\"{}\"", p.label()));
    format!(
        "{{\"index\":{},\"status\":\"{}\",\"byte_start\":{bs},\"byte_end\":{be},\"elem_start\":{},\"elem_end\":{},\"plan\":{plan},\"repaired_shards\":{shards}}}",
        c.index,
        c.status.label(),
        c.elem_range.start,
        c.elem_range.end
    )
}

fn json_stripe(i: usize, s: &PortableStripeStatus) -> String {
    match s {
        PortableStripeStatus::Intact => format!("{{\"index\":{i},\"status\":\"intact\"}}"),
        PortableStripeStatus::Repaired { data, parity } => format!(
            "{{\"index\":{i},\"status\":\"repaired\",\"data\":{},\"parity\":{}}}",
            json_u64_list(data),
            json_u64_list(parity)
        ),
        PortableStripeStatus::Unrepairable {
            damaged_data,
            intact_parity,
        } => format!(
            "{{\"index\":{i},\"status\":\"unrepairable\",\"damaged_data\":{},\"intact_parity\":{intact_parity}}}",
            json_u64_list(damaged_data)
        ),
    }
}

impl PortableScanReport {
    /// The report's JSON fields **without** surrounding braces —
    /// `"format":…,"dims":…,"dtype":…,"declared_chunks":…,"chunks":[…],"parity":…`
    /// — so callers (fsck, `remote scan`) can splice in their own outer
    /// fields (`archive`, `exit_code`, …) while the shared shape stays
    /// in one place.
    pub fn to_json_fields(&self) -> String {
        let chunks: Vec<String> = self.chunks.iter().map(json_chunk).collect();
        let parity = match &self.parity {
            Some(p) => {
                let stripes: Vec<String> = p
                    .stripes
                    .iter()
                    .enumerate()
                    .map(|(i, s)| json_stripe(i, s))
                    .collect();
                format!(
                    "{{\"data_shards\":{},\"parity_shards\":{},\"shard_size\":{},\"n_stripes\":{},\"stripes\":[{}]}}",
                    p.data_shards,
                    p.parity_shards,
                    p.shard_size,
                    p.n_stripes,
                    stripes.join(",")
                )
            }
            None => "null".to_string(),
        };
        format!(
            "\"format\":\"{}\",\"dims\":{},\"dtype\":{},\"declared_chunks\":{},\"chunks\":[{}],\"parity\":{}",
            json_escape(&self.format),
            self.dims.map_or("null".to_string(), json_dims),
            self.dtype
                .map_or("null".to_string(), |t| format!("\"{}\"", t.name())),
            self.declared_chunks,
            chunks.join(","),
            parity
        )
    }

    /// The report as one self-contained JSON object.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.to_json_fields())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PortableScanReport {
        PortableScanReport {
            format: "csz2".to_string(),
            dims: Some(Dims::D3 {
                nz: 4,
                ny: 8,
                nx: 16,
            }),
            dtype: Some(Dtype::F32),
            declared_chunks: 3,
            chunks: vec![
                PortableChunkReport {
                    index: 0,
                    status: PortableChunkStatus::Ok,
                    byte_range: Some(48..1024),
                    elem_range: 0..171,
                    plan: Some(CodecPlan {
                        predictor: Predictor::Lorenzo,
                        workflow: WorkflowChoice::Huffman,
                        lossless: LosslessStage::None,
                    }),
                },
                PortableChunkReport {
                    index: 1,
                    status: PortableChunkStatus::Repaired { shards: vec![3, 4] },
                    byte_range: Some(1024..2000),
                    elem_range: 171..342,
                    plan: Some(CodecPlan {
                        predictor: Predictor::Interpolation,
                        workflow: WorkflowChoice::Rle,
                        lossless: LosslessStage::BitshuffleLz77,
                    }),
                },
                PortableChunkReport {
                    index: 2,
                    status: PortableChunkStatus::Malformed {
                        what: "truncated payload".to_string(),
                        section: "chunk body".to_string(),
                        offset: 2048,
                    },
                    byte_range: None,
                    elem_range: 342..512,
                    plan: None,
                },
            ],
            parity: Some(PortableParityReport {
                data_shards: 8,
                parity_shards: 2,
                shard_size: 4096,
                n_stripes: 2,
                stripes: vec![
                    PortableStripeStatus::Intact,
                    PortableStripeStatus::Unrepairable {
                        damaged_data: vec![9, 10, 11],
                        intact_parity: 1,
                    },
                ],
            }),
        }
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let r = sample();
        let bytes = r.to_bytes();
        let back = PortableScanReport::from_bytes(&bytes).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn binary_roundtrip_of_minimal_report() {
        let r = PortableScanReport {
            format: "v1".to_string(),
            dims: None,
            dtype: None,
            declared_chunks: 0,
            chunks: Vec::new(),
            parity: None,
        };
        assert_eq!(PortableScanReport::from_bytes(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn truncation_and_mutation_never_panic() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let _ = PortableScanReport::from_bytes(&bytes[..cut]);
        }
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0xFF;
            let _ = PortableScanReport::from_bytes(&b);
        }
        // Trailing garbage is rejected, not silently ignored.
        let mut b = bytes.clone();
        b.push(0);
        assert!(PortableScanReport::from_bytes(&b).is_err());
    }

    #[test]
    fn inflated_counts_are_rejected_before_allocation() {
        let mut bytes = sample().to_bytes();
        // The chunk-count u32 sits after version + format + dims + dtype
        // + declared_chunks. Recompute its offset structurally.
        let off = 2 + (2 + 4) + (1 + 24) + 1 + 8;
        bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let e = PortableScanReport::from_bytes(&bytes).unwrap_err();
        assert!(e.to_string().contains("count exceeds"), "{e}");
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 0xEE;
        assert!(matches!(
            PortableScanReport::from_bytes(&bytes),
            Err(CuszpError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn version1_blobs_still_parse_without_plans() {
        // Hand-encoded version-1 blob: one Ok chunk, no plan field in
        // the chunk record (the field did not exist before version 2).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u16.to_le_bytes());
        put_str(&mut bytes, "v1");
        bytes.push(1); // dims tag: D1
        bytes.extend_from_slice(&512u64.to_le_bytes());
        bytes.push(1); // dtype: f32
        bytes.extend_from_slice(&1u64.to_le_bytes()); // declared_chunks
        bytes.extend_from_slice(&1u32.to_le_bytes()); // n_chunks
        bytes.extend_from_slice(&0u64.to_le_bytes()); // index
        bytes.push(0); // no byte range
        bytes.extend_from_slice(&0u64.to_le_bytes()); // elem start
        bytes.extend_from_slice(&512u64.to_le_bytes()); // elem end
        bytes.push(0); // status: Ok
        bytes.push(0); // no parity
        let r = PortableScanReport::from_bytes(&bytes).unwrap();
        assert_eq!(r.chunks.len(), 1);
        assert_eq!(r.chunks[0].plan, None);
        assert_eq!(r.chunks[0].status, PortableChunkStatus::Ok);
        assert!(r.plan_mix().is_empty());
    }

    #[test]
    fn plan_mix_aggregates_in_first_occurrence_order() {
        let r = sample();
        assert_eq!(
            r.plan_mix(),
            vec![
                ("lorenzo+huffman".to_string(), 1),
                ("interpolation+rle+lz77".to_string(), 1),
            ]
        );
    }

    #[test]
    fn json_field_names_are_stable() {
        let j = sample().to_json();
        for key in [
            "\"format\":\"csz2\"",
            "\"dims\":[4,8,16]",
            "\"dtype\":\"f32\"",
            "\"declared_chunks\":3",
            "\"status\":\"ok\"",
            "\"plan\":\"lorenzo+huffman\"",
            "\"plan\":\"interpolation+rle+lz77\"",
            "\"plan\":null",
            "\"status\":\"repaired\"",
            "\"repaired_shards\":[3,4]",
            "\"status\":\"malformed\"",
            "\"byte_start\":null",
            "\"elem_start\":342",
            "\"data_shards\":8",
            "\"status\":\"unrepairable\"",
            "\"damaged_data\":[9,10,11]",
            "\"intact_parity\":1",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn exit_code_contract() {
        let mut r = sample();
        assert_eq!(r.exit_code(), 2, "malformed chunk = data loss");
        r.chunks.pop();
        r.parity = None;
        assert_eq!(r.exit_code(), 1, "repaired chunk, no loss");
        r.chunks.pop();
        assert_eq!(r.exit_code(), 0, "all ok");
    }
}
