//! Fault-isolated decompression and archive diagnosis.
//!
//! CSZ2 chunks are compressed independently — each carries its own
//! header, codebook, and FNV-1a checksum — so corruption in one chunk
//! says nothing about the others. This module exploits that: instead of
//! the all-or-nothing [`ChunkedArchive::from_bytes`](crate::ChunkedArchive)
//! path, [`decompress_resilient`] validates and decodes every chunk
//! independently, reconstructs the undamaged slabs bit-exactly, fills
//! damaged slabs per a caller-chosen [`FillPolicy`], and reports a
//! [`ChunkReport`] per chunk. [`scan`] runs the same diagnosis without
//! producing output (the engine behind `cuszp fsck`).
//!
//! # Geometry recovery
//!
//! The chunk plan is a pure function of the container header's shape and
//! chunk target ([`cuszp_parallel::plan_chunks`]), so slab extents can be
//! recomputed even for chunks whose own headers are destroyed. The plan
//! is the geometry authority: a chunk whose embedded dims disagree with
//! its planned slab is reported [`ChunkStatus::Malformed`] rather than
//! trusted. When **no** chunk is recoverable the container header itself
//! is suspect (its dims would mis-plan every chunk), and recovery fails
//! hard instead of fabricating a field — this is also what keeps a
//! corrupted header from driving a giant output allocation.

use crate::archive::peek_v1_header;
use crate::chunked::{parse_chunked_header, read_length_table_lenient, ChunkedHeader};
use crate::engine::PipelineEngine;
use crate::error::{ArchiveSection, CuszpError, ParseFault};
use crate::parity::{
    parse_parity_layout, ParityConfig, ParitySection, PARITY_HEADER_BYTES, PARITY_MAGIC,
};
use crate::range::{chunk_span, gather_chunk, resolve, slice_field, RangeSpec};
use crate::{is_chunked_archive, Archive, CodecPlan, Dims, Dtype, ReconstructEngine};
use cuszp_ecc::ReedSolomon;
use cuszp_metrics::fnv1a;
use cuszp_parallel::{plan_chunk_spec, plan_len, ChunkSpec, WorkerPool};
use cuszp_predictor::Scalar;
use std::borrow::Cow;
use std::ops::Range;

/// What to write into slabs whose chunk could not be recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillPolicy {
    /// Fill with NaN — damage stays visible to downstream analysis
    /// (the default).
    #[default]
    Nan,
    /// Fill with zero — for consumers that cannot tolerate NaN.
    Zero,
}

impl FillPolicy {
    fn value<T: Scalar>(&self) -> T {
        match self {
            FillPolicy::Nan => T::from_f64(f64::NAN),
            FillPolicy::Zero => T::from_f64(0.0),
        }
    }

    /// Parses a CLI spelling ("nan" / "zero").
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "nan" => Some(FillPolicy::Nan),
            "zero" => Some(FillPolicy::Zero),
            _ => None,
        }
    }
}

/// Outcome of validating (and decoding) one chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkStatus {
    /// Parsed, checksum verified, decoded.
    Ok,
    /// Damaged in storage but reconstructed bit-exactly from Reed–Solomon
    /// parity before decoding; lists the global data-shard indices that
    /// were healed within this chunk's byte range.
    Repaired {
        /// Global data-shard indices (region order) the repair rewrote.
        shards: Vec<usize>,
    },
    /// Stored checksum disagrees with the recomputed one: the chunk's
    /// bytes were altered in storage or transit.
    ChecksumMismatch {
        /// Checksum stored in the chunk header.
        expected: u64,
        /// Checksum recomputed over the chunk payload.
        actual: u64,
        /// Byte offset where the checksummed payload starts, in the
        /// outermost buffer's coordinates.
        offset: usize,
    },
    /// The container ends before this chunk's declared bytes (or before
    /// its length-table entry).
    Truncated,
    /// The chunk bytes are structurally invalid; the fault pinpoints
    /// what and where.
    Malformed(ParseFault),
}

impl ChunkStatus {
    /// True for [`ChunkStatus::Ok`] — the chunk was intact as stored.
    pub fn is_ok(&self) -> bool {
        matches!(self, ChunkStatus::Ok)
    }

    /// True when the chunk's data is available bit-exactly: intact as
    /// stored ([`ChunkStatus::Ok`]) or healed from parity
    /// ([`ChunkStatus::Repaired`]).
    pub fn is_recovered(&self) -> bool {
        matches!(self, ChunkStatus::Ok | ChunkStatus::Repaired { .. })
    }

    /// Short display label ("ok" / "repaired" / "checksum" / "truncated"
    /// / "malformed").
    pub fn label(&self) -> &'static str {
        match self {
            ChunkStatus::Ok => "ok",
            ChunkStatus::Repaired { .. } => "repaired",
            ChunkStatus::ChecksumMismatch { .. } => "checksum",
            ChunkStatus::Truncated => "truncated",
            ChunkStatus::Malformed(_) => "malformed",
        }
    }
}

impl std::fmt::Display for ChunkStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkStatus::Ok => write!(f, "ok"),
            ChunkStatus::Repaired { shards } => {
                write!(f, "repaired from parity (data shards {shards:?})")
            }
            ChunkStatus::ChecksumMismatch {
                expected,
                actual,
                offset,
            } => {
                write!(
                    f,
                    "checksum mismatch (stored {expected:#x}, computed {actual:#x}, payload @ byte {offset})"
                )
            }
            ChunkStatus::Truncated => write!(f, "truncated"),
            ChunkStatus::Malformed(fault) => write!(f, "malformed: {fault}"),
        }
    }
}

/// Per-chunk diagnosis: status, where the chunk lives in the container,
/// and which slab of the field it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkReport {
    /// Chunk index in plan order.
    pub index: usize,
    /// Validation/decode outcome.
    pub status: ChunkStatus,
    /// Declared byte range of the chunk body inside the container, when
    /// the length table still locates it (the end may lie beyond a
    /// truncated buffer).
    pub byte_range: Option<Range<usize>>,
    /// Element range of the field this chunk's slab covers.
    pub elem_range: Range<usize>,
    /// The chunk's recorded codec plan, when its header parsed (present
    /// even for chunks whose payload later failed validation).
    pub plan: Option<CodecPlan>,
}

/// Health of one parity stripe, as classified (and where possible
/// healed) by the recovery pre-pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StripeStatus {
    /// Every data and parity shard matched its stored checksum.
    Intact,
    /// Damage within the erasure budget: the listed `data` shards were
    /// reconstructed bit-exactly; `parity` lists this stripe's damaged
    /// parity shards (stripe-local indices, `0..m`), which
    /// [`repair`] regenerates when rewriting the archive.
    Repaired {
        /// Global data-shard indices reconstructed from parity.
        data: Vec<usize>,
        /// Stripe-local indices of damaged parity shards.
        parity: Vec<usize>,
    },
    /// More damaged data shards than surviving parity shards:
    /// reconstruction is impossible and the affected chunks fall back to
    /// the [`FillPolicy`].
    Unrepairable {
        /// Global data-shard indices that failed their checksums.
        damaged_data: Vec<usize>,
        /// How many of the stripe's parity shards survived.
        intact_parity: usize,
    },
}

/// Stripe-level diagnosis of a container's parity section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityReport {
    /// Data shards per stripe (`k`).
    pub data_shards: u16,
    /// Parity shards per stripe (`m`).
    pub parity_shards: u16,
    /// Bytes per shard.
    pub shard_size: u32,
    /// Number of stripes guarding the chunk region.
    pub n_stripes: usize,
    /// One status per stripe, in region order.
    pub stripes: Vec<StripeStatus>,
}

impl ParityReport {
    /// Stripes healed by the pre-pass (includes parity-only damage).
    pub fn n_repaired(&self) -> usize {
        self.stripes
            .iter()
            .filter(|s| matches!(s, StripeStatus::Repaired { .. }))
            .count()
    }

    /// Stripes whose damage exceeded the erasure budget.
    pub fn n_unrepairable(&self) -> usize {
        self.stripes
            .iter()
            .filter(|s| matches!(s, StripeStatus::Unrepairable { .. }))
            .count()
    }

    /// True when every stripe (data *and* parity shards) verified.
    pub fn is_intact(&self) -> bool {
        self.stripes.iter().all(|s| *s == StripeStatus::Intact)
    }
}

/// Result of [`scan`]: the per-chunk diagnosis without decompression.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanReport {
    /// Container format ("csz2" or "v1").
    pub format: &'static str,
    /// Field dimensions from the container header, when parseable.
    pub dims: Option<Dims>,
    /// Element type from the container header, when parseable.
    pub dtype: Option<Dtype>,
    /// Chunk count the container header declares.
    pub declared_chunks: usize,
    /// One report per chunk in plan order, with two bounded exceptions
    /// that keep the list proportional to the *input*: planned chunks
    /// the buffer cannot even frame collapse into one trailing
    /// `Truncated` report, and declared chunks beyond the plan are
    /// appended only as far as the buffer holds table entries for them.
    pub reports: Vec<ChunkReport>,
    /// Stripe-level parity diagnosis, when the container carries a
    /// locatable parity section.
    pub parity: Option<ParityReport>,
}

impl ScanReport {
    /// Number of chunks whose data is lost (neither intact nor healed
    /// from parity).
    pub fn n_damaged(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| !r.status.is_recovered())
            .count()
    }

    /// Number of chunks healed from parity.
    pub fn n_repaired(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| matches!(r.status, ChunkStatus::Repaired { .. }))
            .count()
    }

    /// True when every chunk's data is available bit-exactly (intact or
    /// repaired).
    pub fn is_clean(&self) -> bool {
        self.n_damaged() == 0
    }
}

/// A field recovered by resilient decompression.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredField<T> {
    /// The reconstructed field; damaged slabs hold the fill value.
    pub data: Vec<T>,
    /// Field dimensions.
    pub dims: Dims,
    /// One report per chunk.
    pub reports: Vec<ChunkReport>,
    /// Stripe-level parity diagnosis, when the container carries a
    /// locatable parity section.
    pub parity: Option<ParityReport>,
}

impl<T> RecoveredField<T> {
    /// Number of chunks whose data is lost (neither intact nor healed
    /// from parity).
    pub fn n_damaged(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| !r.status.is_recovered())
            .count()
    }

    /// Number of chunks healed from parity.
    pub fn n_repaired(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| matches!(r.status, ChunkStatus::Repaired { .. }))
            .count()
    }

    /// True when every chunk's data is available bit-exactly (intact or
    /// repaired).
    pub fn is_clean(&self) -> bool {
        self.n_damaged() == 0
    }
}

/// Maps a chunk-local error to a [`ChunkStatus`], rebasing parse faults
/// to container coordinates.
fn status_from_error(e: CuszpError, chunk: usize, base: usize) -> ChunkStatus {
    match e.in_chunk(chunk, base) {
        CuszpError::ChecksumMismatch {
            expected,
            actual,
            offset,
            ..
        } => ChunkStatus::ChecksumMismatch {
            expected,
            actual,
            offset,
        },
        CuszpError::MalformedArchive(fault) => ChunkStatus::Malformed(fault),
        CuszpError::UnsupportedVersion(_) => ChunkStatus::Malformed(ParseFault {
            what: "unsupported chunk version",
            section: ArchiveSection::ChunkBody,
            offset: base,
            chunk: Some(chunk),
        }),
        _ => ChunkStatus::Malformed(ParseFault {
            what: "invalid chunk",
            section: ArchiveSection::ChunkBody,
            offset: base,
            chunk: Some(chunk),
        }),
    }
}

fn geometry_fault(chunk: usize, base: usize) -> ChunkStatus {
    ChunkStatus::Malformed(ParseFault {
        what: "chunk geometry mismatches plan",
        section: ArchiveSection::ChunkBody,
        offset: base,
        chunk: Some(chunk),
    })
}

/// The container's chunk layout: one entry per *planned* chunk, holding
/// the declared byte range (when locatable) and the in-bounds body slice
/// (when fully present).
struct ChunkLayout<'a> {
    byte_range: Option<Range<usize>>,
    body: Option<&'a [u8]>,
}

/// Walks the length table and locates each planned chunk's bytes. Once
/// the running offset leaves the buffer, every later chunk is absent —
/// the container has no resync framing.
fn layout_chunks<'a>(bytes: &'a [u8], hdr: &ChunkedHeader, n_geo: usize) -> Vec<ChunkLayout<'a>> {
    let lens = read_length_table_lenient(bytes, hdr);
    let table_complete = lens.len() == hdr.n_chunks;
    let body_base = hdr.body_offset();
    let mut out = Vec::with_capacity(n_geo);
    let mut cursor = Some(body_base);
    for i in 0..n_geo {
        let len = lens.get(i).copied();
        let (byte_range, body) = match (cursor, len) {
            (Some(start), Some(len)) => {
                let range = start.checked_add(len).map(|end| start..end);
                // Bodies only exist after a complete length table.
                let body = match (&range, table_complete) {
                    (Some(r), true) => bytes.get(r.clone()),
                    _ => None,
                };
                cursor = range.as_ref().map(|r| r.end);
                (range, body)
            }
            _ => {
                cursor = None;
                (None, None)
            }
        };
        out.push(ChunkLayout { byte_range, body });
    }
    out
}

/// Parses one chunk and cross-checks its geometry against the plan.
fn parse_chunk(
    layout: &ChunkLayout<'_>,
    i: usize,
    slab_dims: Dims,
    dtype: Dtype,
) -> Result<Archive, ChunkStatus> {
    let Some(body) = layout.body else {
        return Err(ChunkStatus::Truncated);
    };
    let base = layout.byte_range.as_ref().map_or(0, |r| r.start);
    let archive = Archive::from_bytes(body).map_err(|e| status_from_error(e, i, base))?;
    if archive.dtype != dtype || archive.dims != slab_dims {
        return Err(geometry_fault(i, base));
    }
    Ok(archive)
}

/// Lazy view of the plan implied by the container header: chunk count
/// and per-chunk specs in O(1). A corrupted extent or chunk target can
/// claim billions of chunks; nothing here costs memory until a chunk is
/// actually evaluated, and evaluation is capped by the input (see
/// [`evaluable_chunks`]).
struct PlanView {
    extents: [usize; 2],
    target: usize,
    n: usize,
}

impl PlanView {
    fn spec(&self, i: usize) -> ChunkSpec {
        plan_chunk_spec(&self.extents, self.target, i)
    }
}

/// Recomputes the chunk plan from the container header.
fn plan_for(hdr: &ChunkedHeader) -> PlanView {
    let extents = [hdr.dims.slow_extent(), hdr.dims.elems_per_slow()];
    let target = usize::try_from(hdr.chunk_target).unwrap_or(usize::MAX);
    PlanView {
        extents,
        target,
        n: plan_len(&extents, target),
    }
}

/// How many planned chunks the input can possibly frame: each needs an
/// 8-byte length-table entry, so per-chunk evaluation (and reporting)
/// is bounded by the buffer itself, never by a header claim.
fn evaluable_chunks(plan_n: usize, hdr: &ChunkedHeader, bytes: &[u8]) -> usize {
    let entry_cap = bytes.len().saturating_sub(hdr.table_offset) / 8;
    plan_n.min(entry_cap.max(1))
}

/// When the buffer cannot frame every planned chunk, the unframeable
/// tail collapses into one `Truncated` report spanning the rest of the
/// field, keeping the report list proportional to the input.
fn push_truncated_tail(
    reports: &mut Vec<ChunkReport>,
    plan: &PlanView,
    n_geo: usize,
    n_elems: usize,
) {
    if n_geo < plan.n {
        let start = plan.spec(n_geo).elems.start.min(n_elems);
        reports.push(ChunkReport {
            index: n_geo,
            status: ChunkStatus::Truncated,
            byte_range: None,
            elem_range: start..n_elems,
            plan: None,
        });
    }
}

/// Reports for declared chunks beyond the plan (an inflated `n_chunks`
/// or a corrupted chunk target): they cover no slab and are malformed by
/// definition. Only entries the buffer actually holds table bytes for
/// are enumerated — an inflated count must not inflate the report list
/// beyond what the input itself pays for (`declared_chunks` still
/// records the raw claim).
fn extra_chunk_reports(
    hdr: &ChunkedHeader,
    layouts_end: usize,
    bytes: &[u8],
    n_elems: usize,
) -> Vec<ChunkReport> {
    let lens = read_length_table_lenient(bytes, hdr);
    let mut cursor = Some(hdr.body_offset());
    for len in lens.iter().take(layouts_end) {
        cursor = cursor.and_then(|c| c.checked_add(*len));
    }
    let mut out = Vec::new();
    for (i, len) in lens.iter().copied().enumerate().skip(layouts_end) {
        let byte_range = match cursor {
            Some(start) => {
                let r = start.checked_add(len).map(|end| start..end);
                cursor = r.as_ref().map(|r| r.end);
                r
            }
            None => None,
        };
        out.push(ChunkReport {
            index: i,
            status: ChunkStatus::Malformed(ParseFault {
                what: "chunk beyond plan",
                section: ArchiveSection::LengthTable,
                offset: hdr.table_offset + i * 8,
                chunk: Some(i),
            }),
            byte_range,
            elem_range: n_elems..n_elems,
            plan: None,
        });
    }
    out
}

/// Global index and absolute byte range of each healed data shard.
type RepairedShards = Vec<(usize, Range<usize>)>;

/// Outcome of the parity pre-pass over a CSZ2 container.
struct ParityHeal {
    /// Stripe-level diagnosis.
    report: ParityReport,
    /// Absolute byte range of the chunk region in the container.
    region: Range<usize>,
    /// Container bytes with every repairable data shard healed in place
    /// (`None` when no data shard needed reconstruction).
    healed: Option<Vec<u8>>,
    /// What was healed, and where.
    repaired: RepairedShards,
}

/// Locates the chunk region from the length table. `None` when the
/// table is incomplete, overflows, or runs past the buffer — a damaged
/// table also makes the parity section unlocatable, so repair degrades
/// to the plain fill path.
fn locate_region(bytes: &[u8], hdr: &ChunkedHeader) -> Option<Range<usize>> {
    let lens = read_length_table_lenient(bytes, hdr);
    if lens.len() != hdr.n_chunks {
        return None;
    }
    let start = hdr.body_offset();
    let mut end = start;
    for len in lens {
        end = end.checked_add(len)?;
    }
    (end <= bytes.len()).then_some(start..end)
}

fn section_u64(section: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(section[off..off + 8].try_into().unwrap())
}

/// Classifies every shard of the parity section against its stored
/// checksum and reconstructs repairable stripes. Returns `None` when the
/// container carries no parity section the scanner can trust enough to
/// use (absent, unlocatable, or a damaged header).
///
/// Truncation that cuts into the chunk region also cuts the section off
/// the tail, so truncated containers get no parity assist — parity
/// guards bit flips, not missing bytes.
fn parity_heal(bytes: &[u8], hdr: &ChunkedHeader) -> Option<ParityHeal> {
    let region_range = locate_region(bytes, hdr)?;
    let section = &bytes[region_range.end..];
    if section.len() < PARITY_HEADER_BYTES
        || u32::from_le_bytes(section[..4].try_into().unwrap()) != PARITY_MAGIC
    {
        return None;
    }
    let geo = parse_parity_layout(section).ok()?;
    if geo.region_len != region_range.len() {
        return None;
    }
    let region = &bytes[region_range.clone()];

    // Shard classification: a data shard is intact iff its bytes hash to
    // the stored checksum; a parity shard additionally needs its length
    // entry to agree with the (header-checksummed) shard size.
    let data_ok: Vec<bool> = (0..geo.n_data)
        .map(|d| {
            section_u64(section, PARITY_HEADER_BYTES + d * 8)
                == fnv1a(&region[geo.data_shard_range(d)])
        })
        .collect();
    let parity_bytes_off = geo.parity_bytes_off();
    let parity_shard = |p: usize| {
        let start = parity_bytes_off + p * geo.shard_size;
        &section[start..start + geo.shard_size]
    };
    let parity_ok: Vec<bool> = (0..geo.n_parity())
        .map(|p| {
            let len_off = geo.parity_len_off() + p * 4;
            let len = u32::from_le_bytes(section[len_off..len_off + 4].try_into().unwrap());
            len as usize == geo.shard_size
                && section_u64(section, geo.parity_cksum_off() + p * 8) == fnv1a(parity_shard(p))
        })
        .collect();

    let rs = ReedSolomon::new(geo.k, geo.m).ok()?;
    let mut healed: Option<Vec<u8>> = None;
    let mut repaired: RepairedShards = Vec::new();
    let mut stripes = Vec::with_capacity(geo.n_stripes);
    for s in 0..geo.n_stripes {
        let data_range = geo.stripe_data_shards(s);
        let damaged_data: Vec<usize> = data_range.clone().filter(|&d| !data_ok[d]).collect();
        let damaged_parity: Vec<usize> =
            (0..geo.m).filter(|&p| !parity_ok[s * geo.m + p]).collect();
        if damaged_data.is_empty() && damaged_parity.is_empty() {
            stripes.push(StripeStatus::Intact);
            continue;
        }
        let intact_parity = geo.m - damaged_parity.len();
        if damaged_data.len() > intact_parity {
            stripes.push(StripeStatus::Unrepairable {
                damaged_data,
                intact_parity,
            });
            continue;
        }
        if !damaged_data.is_empty() {
            // Stripes are disjoint slices of the region, so survivors can
            // be read from the original buffer even after earlier stripes
            // were healed.
            let mut shards: Vec<Option<Vec<u8>>> = Vec::with_capacity(geo.k + geo.m);
            for d in data_range.start..data_range.start + geo.k {
                shards.push(if d >= geo.n_data {
                    // Virtual zero shard of the tail stripe: intact by
                    // definition, never costs erasure budget.
                    Some(vec![0u8; geo.shard_size])
                } else if data_ok[d] {
                    Some(region[geo.data_shard_range(d)].to_vec())
                } else {
                    None
                });
            }
            for p in 0..geo.m {
                let gp = s * geo.m + p;
                shards.push(parity_ok[gp].then(|| parity_shard(gp).to_vec()));
            }
            if rs.reconstruct(&mut shards, geo.shard_size).is_err() {
                stripes.push(StripeStatus::Unrepairable {
                    damaged_data,
                    intact_parity,
                });
                continue;
            }
            let buf = healed.get_or_insert_with(|| bytes.to_vec());
            for &d in &damaged_data {
                let r = geo.data_shard_range(d);
                let abs = region_range.start + r.start..region_range.start + r.end;
                let src = shards[d - data_range.start].as_ref().unwrap();
                buf[abs.clone()].copy_from_slice(&src[..r.len()]);
                repaired.push((d, abs));
            }
        }
        stripes.push(StripeStatus::Repaired {
            data: damaged_data,
            parity: damaged_parity,
        });
    }
    Some(ParityHeal {
        report: ParityReport {
            data_shards: geo.k as u16,
            parity_shards: geo.m as u16,
            shard_size: geo.shard_size as u32,
            n_stripes: geo.n_stripes,
            stripes,
        },
        region: region_range,
        healed,
        repaired,
    })
}

/// Upgrades chunks that validated cleanly only because the parity pass
/// healed bytes inside their range: `Ok` → `Repaired` with the shard
/// indices that were rewritten. Chunks that still fail keep their
/// failure status — their stripe was beyond budget.
fn apply_repairs(reports: &mut [ChunkReport], repaired: &[(usize, Range<usize>)]) {
    if repaired.is_empty() {
        return;
    }
    for rep in reports.iter_mut() {
        if !rep.status.is_ok() {
            continue;
        }
        let Some(br) = rep.byte_range.clone() else {
            continue;
        };
        let shards: Vec<usize> = repaired
            .iter()
            .filter(|(_, r)| r.start < br.end && br.start < r.end)
            .map(|(d, _)| *d)
            .collect();
        if !shards.is_empty() {
            rep.status = ChunkStatus::Repaired { shards };
        }
    }
}

/// Runs the parity pre-pass and hands back the buffer the chunk passes
/// should evaluate: the healed copy when shards were reconstructed, the
/// input otherwise.
fn pre_heal<'a>(
    bytes: &'a [u8],
    hdr: &ChunkedHeader,
) -> (Cow<'a, [u8]>, Option<ParityReport>, RepairedShards) {
    match parity_heal(bytes, hdr) {
        Some(h) => {
            let buf = match h.healed {
                Some(v) => Cow::Owned(v),
                None => Cow::Borrowed(bytes),
            };
            (buf, Some(h.report), h.repaired)
        }
        None => (Cow::Borrowed(bytes), None, Vec::new()),
    }
}

/// Diagnoses every chunk of a CSZ2 container (or a v1 archive, treated
/// as a single chunk) without producing output. Chunks are parsed,
/// checksummed, **and decoded** in parallel; only a container whose
/// fixed header is unusable returns `Err`.
pub fn scan(bytes: &[u8]) -> Result<ScanReport, CuszpError> {
    if !is_chunked_archive(bytes) {
        return Ok(scan_v1(bytes));
    }
    let hdr = parse_chunked_header(bytes)?;
    // Repair before fill: damaged shards the parity section can
    // reconstruct are healed first, so the chunk passes below see the
    // repaired bytes. The header and length table sit outside the
    // striped region and are reused unchanged.
    let (healed, parity, repaired) = pre_heal(bytes, &hdr);
    let bytes = &healed[..];
    let plan = plan_for(&hdr);
    let n_geo = evaluable_chunks(plan.n, &hdr, bytes);
    let layouts = layout_chunks(bytes, &hdr, n_geo);
    // Each scan worker keeps one engine: the decode probe reuses the
    // engine's code arena across every chunk it checks.
    let pool = WorkerPool::with_default_workers();
    let statuses = pool.run_with_state(n_geo, PipelineEngine::new, |i, eng| {
        let slab_dims = hdr.dims.slab(plan.spec(i).slow_len());
        match parse_chunk(&layouts[i], i, slab_dims, hdr.dtype) {
            Err(st) => (st, None),
            Ok(archive) => {
                let chunk_plan = Some(archive.plan());
                match eng.validate_codes(&archive) {
                    Ok(()) => (ChunkStatus::Ok, chunk_plan),
                    Err(e) => {
                        let base = layouts[i].byte_range.as_ref().map_or(0, |r| r.start);
                        (status_from_error(e, i, base), chunk_plan)
                    }
                }
            }
        }
    });
    let mut reports: Vec<ChunkReport> = statuses
        .into_iter()
        .enumerate()
        .map(|(i, (status, chunk_plan))| ChunkReport {
            index: i,
            status,
            byte_range: layouts[i].byte_range.clone(),
            elem_range: plan.spec(i).elems,
            plan: chunk_plan,
        })
        .collect();
    push_truncated_tail(&mut reports, &plan, n_geo, hdr.dims.len());
    reports.extend(extra_chunk_reports(&hdr, n_geo, bytes, hdr.dims.len()));
    apply_repairs(&mut reports, &repaired);
    Ok(ScanReport {
        format: "csz2",
        dims: Some(hdr.dims),
        dtype: Some(hdr.dtype),
        declared_chunks: hdr.n_chunks,
        reports,
        parity,
    })
}

/// v1 archives have no chunk independence: the whole payload is one
/// checksummed unit, reported as a single chunk. The header is peeked
/// separately from payload validation so the report keeps dims and dtype
/// when only the payload is damaged, classifies a cut-off payload as
/// `Truncated`, and pins checksum mismatches to the payload's byte
/// offset instead of collapsing everything into a blanket failure.
fn scan_v1(bytes: &[u8]) -> ScanReport {
    let (mut dims, mut dtype, status, plan) = match Archive::from_bytes(bytes) {
        Ok(a) => {
            let decode = match a.to_quant_field() {
                Ok(_) => ChunkStatus::Ok,
                Err(e) => status_from_error(e, 0, 0),
            };
            (Some(a.dims), Some(a.dtype), decode, Some(a.plan()))
        }
        Err(e) => {
            let truncated = matches!(
                e.fault(),
                Some(f) if f.section == ArchiveSection::Payload && f.what.starts_with("truncated")
            );
            let status = if truncated {
                ChunkStatus::Truncated
            } else {
                status_from_error(e, 0, 0)
            };
            (None, None, status, None)
        }
    };
    if dims.is_none() {
        // Payload damage does not erase the header's facts.
        if let Some((d, t)) = peek_v1_header(bytes) {
            dims = Some(d);
            dtype = Some(t);
        }
    }
    let n_elems = dims.map_or(0, |d| d.len());
    ScanReport {
        format: "v1",
        dims,
        dtype,
        declared_chunks: 1,
        reports: vec![ChunkReport {
            index: 0,
            status,
            byte_range: Some(0..bytes.len()),
            elem_range: 0..n_elems,
            plan,
        }],
        parity: None,
    }
}

/// The reconstruction engine of the resilient decoders (the default one,
/// so undamaged slabs match [`crate::decompress`] bit for bit).
const ENGINE: ReconstructEngine = ReconstructEngine::FinePartialSum;

/// Resilient decompression into `T`: undamaged chunks reconstruct
/// bit-identically to [`crate::decompress`]; damaged slabs are filled
/// per `fill` and reported. Fails hard only when the container header is
/// unusable or **no** chunk is recoverable.
pub fn decompress_resilient<T: Scalar>(
    bytes: &[u8],
    fill: FillPolicy,
) -> Result<RecoveredField<T>, CuszpError> {
    if !is_chunked_archive(bytes) {
        return recover_v1::<T>(bytes);
    }
    let hdr = parse_chunked_header(bytes)?;
    hdr.dtype.check::<T>()?;
    // Repair before fill: shards the parity section can reconstruct are
    // healed before any chunk is parsed, so slabs whose damage fits the
    // erasure budget decode bit-exactly instead of taking the fill value.
    let (healed, parity, repaired) = pre_heal(bytes, &hdr);
    let bytes = &healed[..];
    let plan = plan_for(&hdr);
    let n_geo = evaluable_chunks(plan.n, &hdr, bytes);
    let layouts = layout_chunks(bytes, &hdr, n_geo);
    let pool = WorkerPool::with_default_workers();

    // Pass 1: parse + geometry-check every evaluable chunk (in parallel)
    // BEFORE allocating the output. If nothing is recoverable the
    // header's own dims are untrustworthy and allocating `dims.len()`
    // elements from them would let a flipped extent bit demand arbitrary
    // memory.
    let parsed: Vec<Result<Archive, ChunkStatus>> = pool.run(n_geo, |i| {
        let slab_dims = hdr.dims.slab(plan.spec(i).slow_len());
        parse_chunk(&layouts[i], i, slab_dims, hdr.dtype)
    });
    if plan.n > 0 && !parsed.iter().any(|r| r.is_ok()) {
        return Err(CuszpError::malformed(
            "no recoverable chunks in container",
            ArchiveSection::ChunkBody,
            hdr.body_offset().min(bytes.len()),
        ));
    }

    // Pass 2: reconstruct recovered chunks into their slabs; damaged
    // slabs (and any unframeable tail) keep the fill value the buffer
    // was initialized with. The allocation is a try_reserve: a header
    // that survives pass 1 is trustworthy, but graceful failure beats an
    // abort if memory genuinely runs out.
    // Plans are read off the parsed headers before pass 2 consumes the
    // archives into the worker parts.
    let plans: Vec<Option<CodecPlan>> = parsed
        .iter()
        .map(|r| r.as_ref().ok().map(|a| a.plan()))
        .collect();
    let fill_value: T = fill.value();
    let n_elems = hdr.dims.len();
    let mut data: Vec<T> = Vec::new();
    data.try_reserve_exact(n_elems).map_err(|_| {
        CuszpError::malformed(
            "field too large for memory",
            ArchiveSection::ContainerHeader,
            8,
        )
    })?;
    data.resize(n_elems, fill_value);
    let mut parts: Vec<(&mut [T], Result<Archive, ChunkStatus>)> = Vec::with_capacity(n_geo);
    let mut rest: &mut [T] = &mut data;
    for (i, res) in parsed.into_iter().enumerate() {
        let (head, tail) = rest.split_at_mut(plan.spec(i).elems.len());
        parts.push((head, res));
        rest = tail;
    }
    let statuses = pool.run_parts_with_state(parts, PipelineEngine::new, |i, (slab, res), eng| {
        match res {
            Err(status) => status,
            Ok(archive) => match eng.decompress_into(&archive, ENGINE, slab) {
                Ok(()) => ChunkStatus::Ok,
                Err(e) => {
                    // Reconstruction may have partially written the slab.
                    slab.fill(fill_value);
                    let base = layouts[i].byte_range.as_ref().map_or(0, |r| r.start);
                    status_from_error(e, i, base)
                }
            },
        }
    });
    let mut reports: Vec<ChunkReport> = statuses
        .into_iter()
        .enumerate()
        .map(|(i, status)| ChunkReport {
            index: i,
            status,
            byte_range: layouts[i].byte_range.clone(),
            elem_range: plan.spec(i).elems,
            plan: plans[i],
        })
        .collect();
    push_truncated_tail(&mut reports, &plan, n_geo, n_elems);
    reports.extend(extra_chunk_reports(&hdr, n_geo, bytes, n_elems));
    apply_repairs(&mut reports, &repaired);
    Ok(RecoveredField {
        data,
        dims: hdr.dims,
        reports,
        parity,
    })
}

/// v1 recovery is all-or-nothing: the archive is one checksummed unit,
/// so any damage fails hard (there is no independent chunk to salvage).
fn recover_v1<T: Scalar>(bytes: &[u8]) -> Result<RecoveredField<T>, CuszpError> {
    let archive = Archive::from_bytes(bytes)?;
    archive.dtype.check::<T>()?;
    let plan = archive.plan();
    let data: Vec<T> = PipelineEngine::new().decompress(&archive, ENGINE)?;
    let n = data.len();
    Ok(RecoveredField {
        data,
        dims: archive.dims,
        reports: vec![ChunkReport {
            index: 0,
            status: ChunkStatus::Ok,
            byte_range: Some(0..bytes.len()),
            elem_range: 0..n,
            plan: Some(plan),
        }],
        parity: None,
    })
}

/// Resilient range read into `T`: decodes only the chunks whose slabs
/// intersect `spec`, fills the in-range rows of damaged slabs per
/// `fill`, and reports one [`ChunkReport`] per **intersecting** chunk
/// (global chunk indices and field-global element ranges). Out-of-range
/// chunks are neither decoded nor reported, whatever their state.
pub fn decompress_range_resilient<T: Scalar>(
    bytes: &[u8],
    spec: &RangeSpec,
    fill: FillPolicy,
) -> Result<RecoveredField<T>, CuszpError> {
    if !is_chunked_archive(bytes) {
        // v1 is one checksummed unit: recover it whole, slice after.
        let rv = recover_v1::<T>(bytes)?;
        let plan = rv.reports.first().and_then(|r| r.plan);
        let (data, dims) = slice_field(&rv.data, rv.dims, spec)?;
        let n = data.len();
        return Ok(RecoveredField {
            data,
            dims,
            reports: vec![ChunkReport {
                index: 0,
                status: ChunkStatus::Ok,
                byte_range: Some(0..bytes.len()),
                elem_range: 0..n,
                plan,
            }],
            parity: None,
        });
    }
    let hdr = parse_chunked_header(bytes)?;
    hdr.dtype.check::<T>()?;
    // The spec is validated against the header's dims before anything is
    // allocated or decoded: a bad spec is a typed `InvalidRange`, and a
    // valid spec bounds the output by what the *caller* asked for — so
    // unlike the whole-field path, a range read needs no "any chunk
    // recoverable?" pre-pass to keep a corrupted header from driving a
    // giant allocation. All-damaged-in-range therefore fills and reports
    // instead of failing hard.
    let r = resolve(spec, hdr.dims)?;
    // Repair before fill, as in the whole-field path. Parity stripes span
    // the whole chunk region, so healing is global; the range contract is
    // about decoding and reporting, which stay confined below.
    let (healed, parity, repaired) = pre_heal(bytes, &hdr);
    let bytes = &healed[..];
    let plan = plan_for(&hdr);
    let n_geo = evaluable_chunks(plan.n, &hdr, bytes);
    let span = chunk_span(&plan.extents, plan.target, &r.slow);
    // Layouts are walked cumulatively from chunk 0, but only up to the
    // last in-range chunk the buffer can frame; chunks past that report
    // as truncated via the missing-layout fallback.
    let layouts = layout_chunks(bytes, &hdr, span.end.min(n_geo));
    let missing = ChunkLayout {
        byte_range: None,
        body: None,
    };

    let fill_value: T = fill.value();
    let seps = r.sub_elems_per_slow();
    let mut data: Vec<T> = Vec::new();
    data.try_reserve_exact(r.len()).map_err(|_| {
        CuszpError::malformed(
            "range too large for memory",
            ArchiveSection::ContainerHeader,
            8,
        )
    })?;
    data.resize(r.len(), fill_value);

    // Carve the sub-volume into one contiguous segment per intersecting
    // chunk (chunks tile the slow axis in order), then parse + decode +
    // gather each in parallel. A slab that fails to parse or decode
    // leaves its segment at the fill value.
    let mut parts: Vec<(usize, &mut [T])> = Vec::with_capacity(span.len());
    let mut rest: &mut [T] = &mut data;
    for i in span.clone() {
        let slab = plan.spec(i).slow;
        let rows = slab.end.min(r.slow.end) - slab.start.max(r.slow.start);
        let (head, tail) = rest.split_at_mut(rows * seps);
        parts.push((i, head));
        rest = tail;
    }
    let statuses = WorkerPool::with_default_workers().run_parts_with_state(
        parts,
        || (PipelineEngine::new(), Vec::<T>::new()),
        |_, (i, part), (eng, scratch)| {
            let spec_i = plan.spec(i);
            let slab_dims = hdr.dims.slab(spec_i.slow_len());
            let layout = layouts.get(i).unwrap_or(&missing);
            match parse_chunk(layout, i, slab_dims, hdr.dtype) {
                Err(status) => (status, None),
                Ok(archive) => {
                    let chunk_plan = Some(archive.plan());
                    let n = slab_dims.len();
                    scratch.clear();
                    scratch.resize(n, fill_value);
                    match eng.decompress_into(&archive, ENGINE, &mut scratch[..n]) {
                        Ok(()) => {
                            gather_chunk(&scratch[..n], &spec_i.slow, &r, part);
                            (ChunkStatus::Ok, chunk_plan)
                        }
                        Err(e) => {
                            let base = layout.byte_range.as_ref().map_or(0, |r| r.start);
                            (status_from_error(e, i, base), chunk_plan)
                        }
                    }
                }
            }
        },
    );
    let mut reports: Vec<ChunkReport> = statuses
        .into_iter()
        .zip(span)
        .map(|((status, chunk_plan), i)| ChunkReport {
            index: i,
            status,
            byte_range: layouts.get(i).and_then(|l| l.byte_range.clone()),
            elem_range: plan.spec(i).elems,
            plan: chunk_plan,
        })
        .collect();
    apply_repairs(&mut reports, &repaired);
    Ok(RecoveredField {
        data,
        dims: r.sub_dims(hdr.dims),
        reports,
        parity,
    })
}

/// Outcome of [`repair`]: the healed archive bytes plus the diagnosis of
/// the *input* (what was damaged and what parity reconstructed).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The full healed container: repaired chunk region plus a freshly
    /// regenerated parity section. Parity generation is deterministic,
    /// so an in-budget repair restores the pre-damage archive
    /// byte-identically. Equals the input when nothing was wrong — or
    /// when rewriting would be unsafe (data loss, see `modified`).
    pub bytes: Vec<u8>,
    /// Scan of the input, including `Repaired` chunk statuses and the
    /// stripe-level parity diagnosis.
    pub report: ScanReport,
    /// True when `bytes` differs from the input. Stays false on data
    /// loss: regenerating checksums over unrepairable bytes would freeze
    /// the damage in place, so the input is returned untouched.
    pub modified: bool,
}

/// Heals a CSZ2 archive in memory: reconstructs every repairable data
/// shard from parity and regenerates the parity section (restoring
/// damaged parity shards too). See [`RepairOutcome`] for the contract —
/// archives with unrepairable damage are diagnosed but never rewritten.
pub fn repair(bytes: &[u8]) -> Result<RepairOutcome, CuszpError> {
    let report = scan(bytes)?;
    let untouched = |report: ScanReport| RepairOutcome {
        bytes: bytes.to_vec(),
        report,
        modified: false,
    };
    if !is_chunked_archive(bytes) {
        // v1 archives carry no parity; there is nothing to heal with.
        return Ok(untouched(report));
    }
    let hdr = parse_chunked_header(bytes)?;
    let Some(heal) = parity_heal(bytes, &hdr) else {
        return Ok(untouched(report));
    };
    if heal.report.n_unrepairable() > 0 || report.n_damaged() > 0 {
        return Ok(untouched(report));
    }
    let src = heal.healed.as_deref().unwrap_or(bytes);
    let cfg = ParityConfig {
        data_shards: heal.report.data_shards,
        parity_shards: heal.report.parity_shards,
    };
    let mut out = src[..heal.region.end].to_vec();
    let pool = WorkerPool::with_default_workers();
    if let Some(section) = ParitySection::build(&src[heal.region.clone()], &cfg, &pool) {
        section.write_into(&mut out);
    }
    let modified = out != bytes;
    Ok(RepairOutcome {
        bytes: out,
        report,
        modified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compressor, Config, ErrorBound};

    fn field(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.0017).sin() * 4.0 + (i as f32 * 0.00031).cos())
            .collect()
    }

    fn chunked_bytes(n: usize, target: usize) -> (Vec<f32>, Vec<u8>) {
        let data = field(n);
        let arc = Compressor::new(Config {
            error_bound: ErrorBound::Absolute(1e-3),
            ..Config::default()
        })
        .compress_chunked_with(&data, Dims::D1(n), target, &WorkerPool::new(2))
        .unwrap();
        (data, arc.to_bytes())
    }

    #[test]
    fn clean_container_scans_clean_and_matches_strict_path() {
        let (_, bytes) = chunked_bytes(40_000, 8_000);
        let report = scan(&bytes).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.format, "csz2");
        assert_eq!(report.reports.len(), 5);
        let strict = crate::decompress::<f32>(&bytes).unwrap().0;
        let recovered = decompress_resilient::<f32>(&bytes, FillPolicy::Nan).unwrap();
        assert!(recovered.is_clean());
        assert_eq!(recovered.data, strict, "resilient path must be bit-exact");
    }

    #[test]
    fn one_corrupt_chunk_recovers_all_others_bit_exact() {
        let (_, bytes) = chunked_bytes(40_000, 8_000);
        let strict = crate::decompress::<f32>(&bytes).unwrap().0;
        let report = scan(&bytes).unwrap();
        // Flip a byte inside chunk 2's body.
        let r = report.reports[2].byte_range.clone().unwrap();
        let mut bad = bytes.clone();
        bad[r.start + r.len() / 2] ^= 0x01;

        let rec = decompress_resilient::<f32>(&bad, FillPolicy::Nan).unwrap();
        assert_eq!(rec.n_damaged(), 1);
        assert!(matches!(
            rec.reports[2].status,
            ChunkStatus::ChecksumMismatch { .. } | ChunkStatus::Malformed(_)
        ));
        let er = rec.reports[2].elem_range.clone();
        for (i, (&got, &want)) in rec.data.iter().zip(&strict).enumerate() {
            if er.contains(&i) {
                assert!(got.is_nan(), "damaged slab must be NaN-filled at {i}");
            } else {
                assert!(got == want, "undamaged element {i} must be bit-exact");
            }
        }

        let rec0 = decompress_resilient::<f32>(&bad, FillPolicy::Zero).unwrap();
        for i in er {
            assert_eq!(rec0.data[i], 0.0);
        }
    }

    #[test]
    fn truncation_reports_tail_chunks() {
        let (_, bytes) = chunked_bytes(40_000, 8_000);
        let report = scan(&bytes).unwrap();
        let cut = report.reports[3].byte_range.clone().unwrap().start + 5;
        let trunc = &bytes[..cut];
        let rec = decompress_resilient::<f32>(trunc, FillPolicy::Nan).unwrap();
        assert_eq!(rec.n_damaged(), 2);
        assert_eq!(rec.reports[3].status, ChunkStatus::Truncated);
        assert_eq!(rec.reports[4].status, ChunkStatus::Truncated);
        for r in &rec.reports[..3] {
            assert!(r.status.is_ok());
        }
    }

    #[test]
    fn destroying_every_chunk_fails_hard() {
        let (_, bytes) = chunked_bytes(20_000, 5_000);
        let hdr = parse_chunked_header(&bytes).unwrap();
        let mut bad = bytes.clone();
        for b in bad[hdr.body_offset()..].iter_mut() {
            *b = 0xAA;
        }
        assert!(decompress_resilient::<f32>(&bad, FillPolicy::Nan).is_err());
        // scan still works — it never allocates output.
        let report = scan(&bad).unwrap();
        assert_eq!(report.n_damaged(), report.reports.len());
    }

    #[test]
    fn inflated_n_chunks_reports_extras_without_overallocation() {
        let (_, bytes) = chunked_bytes(20_000, 5_000);
        let hdr = parse_chunked_header(&bytes).unwrap();
        let mut bad = bytes.clone();
        let n_off = hdr.table_offset - 4;
        bad[n_off..n_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        // Strict path rejects; scan survives and reports.
        assert!(crate::decompress::<f32>(&bad).is_err());
        let report = scan(&bad).unwrap();
        assert_eq!(report.declared_chunks, u32::MAX as usize);
        assert!(!report.is_clean());
        // Reports stay bounded by plan + declared-but-absent entries...
        // absent entries have no table bytes, so the lenient table walk
        // bounds the work by the buffer, not by the declared count.
        assert!(report.reports.len() >= 4);
    }

    #[test]
    fn v1_archives_scan_as_single_chunk() {
        let data = field(5_000);
        let arc = Compressor::default()
            .compress(&data, Dims::D1(5_000))
            .unwrap();
        let bytes = arc.to_bytes();
        let report = scan(&bytes).unwrap();
        assert_eq!(report.format, "v1");
        assert!(report.is_clean());
        let rec = decompress_resilient::<f32>(&bytes, FillPolicy::Nan).unwrap();
        assert!(rec.is_clean());
        // Damage anywhere fails hard — v1 has no chunk isolation.
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 3] ^= 0x08;
        assert!(decompress_resilient::<f32>(&bad, FillPolicy::Nan).is_err());
        let report = scan(&bad).unwrap();
        assert_eq!(report.n_damaged(), 1);
    }

    fn parity_bytes(n: usize, target: usize, m: u16, k: u16) -> (Vec<f32>, Vec<u8>) {
        let data = field(n);
        let arc = Compressor::new(Config {
            error_bound: ErrorBound::Absolute(1e-3),
            ..Config::default()
        })
        .compress_chunked_with_parity(
            &data,
            Dims::D1(n),
            target,
            &WorkerPool::new(2),
            ParityConfig {
                data_shards: k,
                parity_shards: m,
            },
        )
        .unwrap();
        (data, arc.to_bytes())
    }

    #[test]
    fn shard_damage_heals_bit_exactly_and_reports_repaired() {
        let (_, bytes) = parity_bytes(40_000, 8_000, 2, 4);
        let strict = crate::decompress::<f32>(&bytes).unwrap().0;
        let hdr = parse_chunked_header(&bytes).unwrap();
        let mut bad = bytes.clone();
        bad[hdr.body_offset() + 10] ^= 0xFF;
        // The strict path refuses the damaged container; scan heals it.
        assert!(crate::decompress::<f32>(&bad).is_err());
        let report = scan(&bad).unwrap();
        assert!(report.is_clean(), "in-budget damage must scan clean");
        // One 4 KiB shard can span several small chunks; every chunk the
        // healed shard touches reports Repaired.
        assert!(report.n_repaired() >= 1);
        assert!(matches!(
            report.reports[0].status,
            ChunkStatus::Repaired { .. }
        ));
        let parity = report.parity.expect("parity section must be diagnosed");
        assert_eq!(parity.n_repaired(), 1);
        assert_eq!(parity.n_unrepairable(), 0);
        let rec = decompress_resilient::<f32>(&bad, FillPolicy::Nan).unwrap();
        assert_eq!(rec.n_damaged(), 0);
        assert!(rec.n_repaired() >= 1);
        assert_eq!(rec.data, strict, "healed decode must be bit-exact");
    }

    #[test]
    fn damage_beyond_parity_budget_falls_back_to_fill() {
        let (_, bytes) = parity_bytes(40_000, 8_000, 1, 4);
        let strict = crate::decompress::<f32>(&bytes).unwrap().0;
        let clean = scan(&bytes).unwrap();
        assert!(clean.parity.as_ref().unwrap().is_intact());
        let shard = clean.parity.as_ref().unwrap().shard_size as usize;
        let hdr = parse_chunked_header(&bytes).unwrap();
        // Two damaged data shards in stripe 0 against one parity shard.
        let mut bad = bytes.clone();
        bad[hdr.body_offset() + 1] ^= 0x40;
        bad[hdr.body_offset() + shard + 1] ^= 0x40;
        let report = scan(&bad).unwrap();
        let parity = report.parity.clone().unwrap();
        assert_eq!(parity.n_unrepairable(), 1);
        assert!(!report.is_clean());
        let rec = decompress_resilient::<f32>(&bad, FillPolicy::Nan).unwrap();
        assert!(rec.n_damaged() >= 1);
        // Unrecovered slabs are filled; everything else stays bit-exact.
        for r in &rec.reports {
            if r.status.is_recovered() {
                let er = r.elem_range.clone();
                assert_eq!(&rec.data[er.clone()], &strict[er]);
            } else {
                for i in r.elem_range.clone() {
                    assert!(rec.data[i].is_nan());
                }
            }
        }
    }

    #[test]
    fn repair_restores_pre_damage_bytes_exactly() {
        let (_, bytes) = parity_bytes(40_000, 8_000, 2, 4);
        // Clean archive: repair is a byte-identical no-op.
        let clean = repair(&bytes).unwrap();
        assert!(!clean.modified);
        assert_eq!(clean.bytes, bytes);

        // In-budget damage (a data shard and a parity shard): the healed
        // region plus deterministic parity regeneration restores the
        // exact original archive.
        let hdr = parse_chunked_header(&bytes).unwrap();
        let mut bad = bytes.clone();
        bad[hdr.body_offset() + 3] ^= 0x11;
        let last = bad.len() - 1;
        bad[last] ^= 0x22;
        let healed = repair(&bad).unwrap();
        assert!(healed.modified);
        assert_eq!(healed.bytes, bytes, "repair must restore original bytes");
        assert!(healed.report.is_clean());
        assert!(healed.report.n_repaired() >= 1);

        // Beyond-budget damage: never rewritten — freezing damaged bytes
        // under fresh checksums would destroy the evidence.
        let shard = clean.report.parity.as_ref().unwrap().shard_size as usize;
        let mut lost = bytes.clone();
        for i in 0..3 {
            lost[hdr.body_offset() + i * shard + 7] ^= 0x01;
        }
        let out = repair(&lost).unwrap();
        assert!(!out.modified);
        assert_eq!(out.bytes, lost);
        assert!(out.report.n_damaged() >= 1);
    }

    #[test]
    fn v1_payload_damage_keeps_header_facts_and_offsets() {
        let data = field(5_000);
        let arc = Compressor::default()
            .compress(&data, Dims::D1(5_000))
            .unwrap();
        let bytes = arc.to_bytes();
        // Payload flip: checksum mismatch pinned to the payload offset,
        // dims/dtype still reported from the intact header.
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 3] ^= 0x08;
        let report = scan(&bad).unwrap();
        assert_eq!(report.dims, Some(Dims::D1(5_000)));
        assert_eq!(report.dtype, Some(Dtype::F32));
        // 72 = v1 HEADER_BYTES, where the checksummed payload starts.
        assert!(matches!(
            report.reports[0].status,
            ChunkStatus::ChecksumMismatch { offset: 72, .. }
        ));
        // A cut-off payload is truncation, not a blanket malformed.
        let report = scan(&bytes[..bytes.len() - 9]).unwrap();
        assert_eq!(report.dims, Some(Dims::D1(5_000)));
        assert_eq!(report.reports[0].status, ChunkStatus::Truncated);
    }

    #[test]
    fn f64_recovery_round_trips() {
        let data: Vec<f64> = (0..20_000).map(|i| (i as f64 * 0.001).sin()).collect();
        let arc = Compressor::default()
            .compress_chunked_with(&data, Dims::D1(20_000), 5_000, &WorkerPool::new(2))
            .unwrap();
        let bytes = arc.to_bytes();
        let rec = decompress_resilient::<f64>(&bytes, FillPolicy::Nan).unwrap();
        assert!(rec.is_clean());
    }
}
