//! Chunk-parallel execution engine: the v2 multi-chunk archive.
//!
//! The field is split into independent slabs along its slowest-varying
//! axis ([`cuszp_parallel::plan_chunks`]); each chunk runs the **full**
//! per-chunk pipeline — prequant → Lorenzo → histogram/selector →
//! Huffman-or-RLE — on a [`WorkerPool`], with its own histogram and its
//! own codebook. The per-chunk payloads are concatenated into the "CSZ2"
//! container in plan order. Decompression fans the chunks back out in
//! parallel, each writing its slab of the output in place.
//!
//! # Determinism
//!
//! Chunked archives are **byte-identical regardless of thread count**:
//!
//! * the chunk plan is a pure function of the field shape and chunk
//!   target — the worker count never enters it;
//! * a relative error bound is resolved to an absolute one **once, over
//!   the whole field**, before chunking (never per slab);
//! * every chunk job runs with nested parallelism forced serial
//!   ([`WorkerPool`] does this even for one worker), so a chunk's bytes
//!   come from the identical code path under any pool width;
//! * the merge is ordered by chunk index, not completion order.

use crate::engine::{resolve_bound, validate_and_range, PipelineEngine};
use crate::error::{ArchiveSection, CuszpError};
use crate::parity::{ParityConfig, ParitySection, PARITY_MAGIC};
use crate::stats::ChunkedStats;
use crate::{Archive, Compressor, Dims, Dtype, ReconstructEngine};
use cuszp_parallel::{plan_chunks, ChunkPlan, WorkerPool};
use cuszp_predictor::Scalar;

pub(crate) const CHUNKED_MAGIC: u32 = 0x325A_5343; // "CSZ2"
const CHUNKED_VERSION: u16 = 2;
pub(crate) const CHUNKED_HEADER_BYTES: usize = 4 + 2 + 1 + 1 + 24 + 8 + 8 + 4;

/// True when `bytes` starts with the chunked-container magic.
pub fn is_chunked_archive(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && u32::from_le_bytes(bytes[0..4].try_into().unwrap()) == CHUNKED_MAGIC
}

/// A v2 multi-chunk archive: per-chunk v1 [`Archive`]s in plan order.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkedArchive {
    /// Original field dimensions.
    pub dims: Dims,
    /// Element type of the field.
    pub dtype: Dtype,
    /// Global absolute error bound (resolved once over the whole field).
    pub eb: f64,
    /// Target elements per chunk the plan was built with.
    pub chunk_target: u64,
    /// Per-chunk archives, in plan (= slab) order.
    pub chunks: Vec<Archive>,
    /// Optional Reed–Solomon parity over the serialized chunk region
    /// (see [`crate::ParitySection`]). `None` serializes byte-identically
    /// to the pre-parity format.
    pub parity: Option<ParitySection>,
}

impl Compressor {
    /// Chunk-parallel compression with explicit chunk target and pool.
    /// The archive bytes depend on `target_elems` (it shapes the plan)
    /// but **never** on the pool width.
    pub fn compress_chunked_with<T: Scalar>(
        &self,
        data: &[T],
        dims: Dims,
        target_elems: usize,
        pool: &WorkerPool,
    ) -> Result<ChunkedArchive, CuszpError> {
        self.compress_chunked_with_stats(data, dims, target_elems, pool)
            .map(|(a, _)| a)
    }

    /// [`Compressor::compress_chunked_with`] also returning the
    /// aggregated per-chunk statistics ([`ChunkedStats`]).
    pub fn compress_chunked_with_stats<T: Scalar>(
        &self,
        data: &[T],
        dims: Dims,
        target_elems: usize,
        pool: &WorkerPool,
    ) -> Result<(ChunkedArchive, ChunkedStats), CuszpError> {
        let (eb, plan) = self.chunk_prologue(data, dims, target_elems)?;
        let config = self.config();
        // Each pool worker keeps ONE engine and reuses its scratch arenas
        // across every chunk it drains from the queue.
        let results = pool.run_with_state(plan.len(), PipelineEngine::new, |i, eng| {
            let spec = &plan.chunks[i];
            let chunk_dims = dims.slab(spec.slow_len());
            eng.compress(config, &data[spec.elems.clone()], chunk_dims, eb)
        });
        let mut chunks = Vec::with_capacity(results.len());
        let mut per_chunk = Vec::with_capacity(results.len());
        for r in results {
            let (archive, stats) = r?;
            chunks.push(archive);
            per_chunk.push(stats);
        }
        Ok((
            ChunkedArchive::assemble::<T>(dims, eb, target_elems, chunks),
            ChunkedStats { per_chunk },
        ))
    }

    /// [`Compressor::compress_chunked_with`] plus a self-healing parity
    /// section: after compression the serialized chunk region is striped
    /// and Reed–Solomon parity (`parity.parity_shards` per stripe of
    /// `parity.data_shards` data shards) is appended. Parity encoding
    /// fans stripes across the same pool; bytes stay independent of the
    /// pool width.
    pub fn compress_chunked_with_parity<T: Scalar>(
        &self,
        data: &[T],
        dims: Dims,
        target_elems: usize,
        pool: &WorkerPool,
        parity: ParityConfig,
    ) -> Result<ChunkedArchive, CuszpError> {
        parity.validate()?;
        let mut arc = self.compress_chunked_with(data, dims, target_elems, pool)?;
        arc.add_parity(parity, pool);
        Ok(arc)
    }

    /// Chunk-sequential compression on a **caller-owned engine**: the
    /// whole plan runs on `engine`, reusing its scratch arenas across
    /// chunks *and across calls*. This is the long-lived-service entry
    /// point — a `cuszp-server` worker owns one engine for its lifetime
    /// and drives every request through it instead of reallocating
    /// arenas per request. Each chunk runs under
    /// [`cuszp_parallel::with_serial_inner`], the same code path pool
    /// jobs take, so the bytes are identical to the pooled drivers at
    /// any worker count.
    pub fn compress_chunked_with_engine<T: Scalar>(
        &self,
        data: &[T],
        dims: Dims,
        target_elems: usize,
        engine: &mut PipelineEngine,
    ) -> Result<ChunkedArchive, CuszpError> {
        let (eb, plan) = self.chunk_prologue(data, dims, target_elems)?;
        let config = self.config();
        let mut chunks = Vec::with_capacity(plan.len());
        for spec in &plan.chunks {
            let chunk_dims = dims.slab(spec.slow_len());
            let (archive, _) = cuszp_parallel::with_serial_inner(|| {
                engine.compress(config, &data[spec.elems.clone()], chunk_dims, eb)
            })?;
            chunks.push(archive);
        }
        Ok(ChunkedArchive::assemble::<T>(
            dims,
            eb,
            target_elems,
            chunks,
        ))
    }

    /// The prologue both chunked drivers share: one validation + range
    /// pass over the whole field (chunks then skip their own scans), the
    /// bound resolved once, and the chunk plan. Resolving the bound
    /// globally BEFORE chunking matters twice over: a relative bound must
    /// scale with the whole field's range, not each slab's, both for
    /// uniform quality and for plan-independent bytes.
    fn chunk_prologue<T: Scalar>(
        &self,
        data: &[T],
        dims: Dims,
        target_elems: usize,
    ) -> Result<(f64, ChunkPlan), CuszpError> {
        let range = validate_and_range(data, dims)?;
        let eb = resolve_bound(self.config().error_bound, range)?;
        let plan = plan_chunks(&[dims.slow_extent(), dims.elems_per_slow()], target_elems);
        Ok((eb, plan))
    }
}

impl ChunkedArchive {
    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Total serialized size in bytes.
    pub fn serialized_bytes(&self) -> usize {
        CHUNKED_HEADER_BYTES
            + self.chunks.len() * 8
            + self
                .chunks
                .iter()
                .map(Archive::serialized_bytes)
                .sum::<usize>()
            + self
                .parity
                .as_ref()
                .map_or(0, ParitySection::serialized_bytes)
    }

    /// Computes and attaches a parity section over the serialized chunk
    /// region, replacing any existing one. A no-op for an empty region
    /// (nothing to protect). Deterministic at any pool width.
    pub fn add_parity(&mut self, cfg: ParityConfig, pool: &WorkerPool) {
        // The region is exactly what to_bytes will emit for the chunk
        // bodies: each chunk serializes into the same bytes it would
        // inside the container.
        let mut region =
            Vec::with_capacity(self.chunks.iter().map(Archive::serialized_bytes).sum());
        for chunk in &self.chunks {
            chunk.write_into(&mut region);
        }
        self.parity = ParitySection::build(&region, &cfg, pool);
    }

    /// A parity-less container over freshly compressed chunks of `T`.
    fn assemble<T: Scalar>(dims: Dims, eb: f64, target_elems: usize, chunks: Vec<Archive>) -> Self {
        ChunkedArchive {
            dims,
            dtype: Dtype::of::<T>(),
            eb,
            chunk_target: target_elems as u64,
            chunks,
            parity: None,
        }
    }

    /// `f32` decompression with an explicit pool: [`ChunkedArchive::decode`]
    /// for single-precision callers.
    pub fn decompress_with(
        &self,
        engine: ReconstructEngine,
        pool: &WorkerPool,
    ) -> Result<(Vec<f32>, Dims), CuszpError> {
        self.decode(engine, pool)
    }

    /// Parallel decompression of the whole field into `T`, one chunk per
    /// pool job.
    pub fn decode<T: Scalar>(
        &self,
        engine: ReconstructEngine,
        pool: &WorkerPool,
    ) -> Result<(Vec<T>, Dims), CuszpError> {
        self.dtype.check::<T>()?;
        self.validate_chunk_geometry()?;
        let mut out = vec![T::from_f64(0.0); self.dims.len()];
        // Carve the output into one mutable slab per chunk; each job owns
        // its slab, so chunks reconstruct concurrently without copies.
        let mut slabs: Vec<&mut [T]> = Vec::with_capacity(self.chunks.len());
        let mut rest: &mut [T] = &mut out;
        for chunk in &self.chunks {
            let (head, tail) = rest.split_at_mut(chunk.dims.len());
            slabs.push(head);
            rest = tail;
        }
        // One engine per worker: the decode/fuse scratch survives across
        // all the chunks a worker reconstructs.
        let results = pool.run_parts_with_state(
            slabs,
            PipelineEngine::new,
            |i, slab, eng| -> Result<(), CuszpError> {
                eng.decompress_into(&self.chunks[i], engine, slab)
            },
        );
        for r in results {
            r?;
        }
        Ok((out, self.dims))
    }

    /// Checks that the chunks match the plan implied by the container
    /// header, slab by slab.
    ///
    /// The plan is a pure function of `(dims, chunk_target)`, so the
    /// header fully determines where every chunk must sit and what shape
    /// it must have. Enforcing exact per-slab equality (not merely that
    /// slow extents sum up) is what rejects a container whose chunks
    /// were reordered self-consistently — same-sum transpositions would
    /// otherwise reconstruct silently with slabs in the wrong places.
    pub(crate) fn validate_chunk_geometry(&self) -> Result<(), CuszpError> {
        let target = usize::try_from(self.chunk_target).unwrap_or(usize::MAX);
        let plan = plan_chunks(
            &[self.dims.slow_extent(), self.dims.elems_per_slow()],
            target,
        );
        if self.chunks.len() != plan.len() {
            return Err(CuszpError::malformed(
                "chunk count disagrees with plan",
                ArchiveSection::ContainerHeader,
                CHUNKED_HEADER_BYTES - 4,
            ));
        }
        for (i, chunk) in self.chunks.iter().enumerate() {
            if chunk.dtype != self.dtype {
                return Err(CuszpError::malformed(
                    "chunk dtype mismatches container",
                    ArchiveSection::ChunkBody,
                    0,
                )
                .in_chunk(i, 0));
            }
            if chunk.dims != self.dims.slab(plan.chunks[i].slow_len()) {
                return Err(CuszpError::malformed(
                    "chunk shape mismatches plan",
                    ArchiveSection::ChunkBody,
                    0,
                )
                .in_chunk(i, 0));
            }
        }
        Ok(())
    }

    /// Serializes the container:
    /// `[magic][version u16][rank u8][dtype u8][extents 3×u64][eb f64]
    ///  [chunk_target u64][n_chunks u32][chunk_len u64]* [chunk bytes]*
    ///  [parity section]?` — the parity section only when present, so
    /// parity-less archives keep the exact pre-parity byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        // `Archive::serialized_bytes` is exact, so the length table can
        // be written before any chunk body and every chunk serializes
        // directly into the single pre-sized output buffer.
        let mut out = Vec::with_capacity(self.serialized_bytes());
        out.extend_from_slice(&CHUNKED_MAGIC.to_le_bytes());
        out.extend_from_slice(&CHUNKED_VERSION.to_le_bytes());
        out.push(self.dims.rank() as u8);
        out.push(match self.dtype {
            Dtype::F32 => 0,
            Dtype::F64 => 1,
        });
        for e in self.dims.extents() {
            out.extend_from_slice(&(e as u64).to_le_bytes());
        }
        out.extend_from_slice(&self.eb.to_le_bytes());
        out.extend_from_slice(&self.chunk_target.to_le_bytes());
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for chunk in &self.chunks {
            out.extend_from_slice(&(chunk.serialized_bytes() as u64).to_le_bytes());
        }
        for chunk in &self.chunks {
            chunk.write_into(&mut out);
        }
        if let Some(parity) = &self.parity {
            parity.write_into(&mut out);
        }
        out
    }

    /// Parses a container written by [`Self::to_bytes`]. Every chunk is
    /// structurally validated and checksummed by [`Archive::from_bytes`];
    /// failures carry the chunk index and container-relative byte offset.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CuszpError> {
        let hdr = parse_chunked_header(bytes)?;
        let lens = read_length_table(bytes, &hdr)?;
        let region_start = hdr.table_offset + hdr.n_chunks * 8;
        let mut pos = region_start;
        let mut chunks = Vec::with_capacity(lens.len());
        for (i, len) in lens.into_iter().enumerate() {
            let slice = pos
                .checked_add(len)
                .and_then(|end| bytes.get(pos..end))
                .ok_or(
                    CuszpError::malformed(
                        "chunk truncated",
                        ArchiveSection::ChunkBody,
                        bytes.len(),
                    )
                    .in_chunk(i, 0),
                )?;
            chunks.push(Archive::from_bytes(slice).map_err(|e| e.in_chunk(i, pos))?);
            pos += len;
        }
        // Anything after the chunk region must be a valid parity section
        // — the only extension the format defines; other trailing bytes
        // stay a hard error.
        let parity = if pos == bytes.len() {
            None
        } else if bytes.len() - pos >= 4
            && u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) == PARITY_MAGIC
        {
            Some(ParitySection::from_bytes(
                &bytes[pos..],
                &bytes[region_start..pos],
                pos,
            )?)
        } else {
            return Err(CuszpError::malformed(
                "trailing bytes after last chunk",
                ArchiveSection::Trailer,
                pos,
            ));
        };
        let archive = Self {
            dims: hdr.dims,
            dtype: hdr.dtype,
            eb: hdr.eb,
            chunk_target: hdr.chunk_target,
            chunks,
            parity,
        };
        archive.validate_chunk_geometry()?;
        Ok(archive)
    }
}

/// Parsed fixed-size prefix of a CSZ2 container, shared between the
/// strict parser ([`ChunkedArchive::from_bytes`]) and the lenient
/// recovery scanner (`crate::recovery`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkedHeader {
    pub dims: Dims,
    pub dtype: Dtype,
    pub eb: f64,
    pub chunk_target: u64,
    pub n_chunks: usize,
    /// Byte offset of the chunk length table (first byte after the
    /// fixed header).
    pub table_offset: usize,
}

impl ChunkedHeader {
    /// Byte offset of the first chunk body (end of a complete table).
    /// Saturates on inflated chunk counts so lenient scanners can call
    /// it before any bounds validation.
    pub fn body_offset(&self) -> usize {
        self.table_offset
            .saturating_add(self.n_chunks.saturating_mul(8))
    }
}

/// Parses and validates the fixed CSZ2 header.
pub(crate) fn parse_chunked_header(bytes: &[u8]) -> Result<ChunkedHeader, CuszpError> {
    use ArchiveSection::ContainerHeader;
    if bytes.len() < CHUNKED_HEADER_BYTES {
        return Err(CuszpError::malformed(
            "chunked header truncated",
            ContainerHeader,
            bytes.len(),
        ));
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    if magic != CHUNKED_MAGIC {
        return Err(CuszpError::malformed(
            "bad chunked magic",
            ContainerHeader,
            0,
        ));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != CHUNKED_VERSION {
        return Err(CuszpError::UnsupportedVersion(version));
    }
    let rank = bytes[6];
    let dtype = match bytes[7] {
        0 => Dtype::F32,
        1 => Dtype::F64,
        _ => {
            return Err(CuszpError::malformed(
                "bad chunked dtype",
                ContainerHeader,
                7,
            ))
        }
    };
    let mut pos = 8usize;
    let mut ext = [0usize; 3];
    for e in ext.iter_mut() {
        *e = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize;
        pos += 8;
    }
    let (dims, n_elems) = match rank {
        1 => (Dims::D1(ext[2]), Some(ext[2])),
        2 => (
            Dims::D2 {
                ny: ext[1],
                nx: ext[2],
            },
            ext[1].checked_mul(ext[2]),
        ),
        3 => (
            Dims::D3 {
                nz: ext[0],
                ny: ext[1],
                nx: ext[2],
            },
            ext[0]
                .checked_mul(ext[1])
                .and_then(|p| p.checked_mul(ext[2])),
        ),
        _ => {
            return Err(CuszpError::malformed(
                "bad chunked rank",
                ContainerHeader,
                6,
            ))
        }
    };
    if n_elems.is_none() {
        return Err(CuszpError::malformed(
            "extent product overflow",
            ContainerHeader,
            8,
        ));
    }
    let eb = f64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
    pos += 8;
    let chunk_target = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
    pos += 8;
    let n_chunks = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    pos += 4;
    Ok(ChunkedHeader {
        dims,
        dtype,
        eb,
        chunk_target,
        n_chunks,
        table_offset: pos,
    })
}

/// Reads the full chunk length table, strictly: the buffer must hold all
/// `n_chunks` entries. The bounds check precedes the allocation, so an
/// inflated `n_chunks` cannot drive `Vec::with_capacity` beyond what the
/// input itself pays for.
pub(crate) fn read_length_table(
    bytes: &[u8],
    hdr: &ChunkedHeader,
) -> Result<Vec<usize>, CuszpError> {
    let need = hdr.n_chunks.checked_mul(8).ok_or(CuszpError::malformed(
        "chunk count overflow",
        ArchiveSection::LengthTable,
        hdr.table_offset,
    ))?;
    if bytes.len() - hdr.table_offset < need {
        return Err(CuszpError::malformed(
            "chunk length table truncated",
            ArchiveSection::LengthTable,
            bytes.len(),
        ));
    }
    let mut lens = Vec::with_capacity(hdr.n_chunks);
    let mut pos = hdr.table_offset;
    for _ in 0..hdr.n_chunks {
        lens.push(u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize);
        pos += 8;
    }
    Ok(lens)
}

/// Reads as many complete length-table entries as the buffer holds — the
/// lenient variant the recovery scanner uses on truncated containers.
pub(crate) fn read_length_table_lenient(bytes: &[u8], hdr: &ChunkedHeader) -> Vec<usize> {
    let mut lens = Vec::new();
    let mut pos = hdr.table_offset;
    for _ in 0..hdr.n_chunks {
        match bytes.get(pos..pos + 8) {
            Some(s) => lens.push(u64::from_le_bytes(s.try_into().unwrap()) as usize),
            None => break,
        }
        pos += 8;
    }
    lens
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, ErrorBound, WorkflowMode};
    use cuszp_parallel::DEFAULT_CHUNK_ELEMS;

    fn field(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.0021).sin() * 9.0 + (i as f32 * 0.00047).cos())
            .collect()
    }

    #[test]
    fn chunked_round_trip_all_ranks() {
        let c = Compressor::default();
        let pool = WorkerPool::new(3);
        for dims in [
            Dims::D1(40_000),
            Dims::D2 { ny: 180, nx: 220 },
            Dims::D3 {
                nz: 19,
                ny: 40,
                nx: 50,
            },
        ] {
            let data = field(dims.len());
            let arc = c.compress_chunked_with(&data, dims, 8_000, &pool).unwrap();
            assert!(arc.n_chunks() > 1, "{dims:?} must split");
            let bytes = arc.to_bytes();
            assert_eq!(bytes.len(), arc.serialized_bytes());
            let parsed = ChunkedArchive::from_bytes(&bytes).unwrap();
            assert_eq!(parsed, arc);
            let (recon, got) = parsed
                .decompress_with(ReconstructEngine::FinePartialSum, &pool)
                .unwrap();
            assert_eq!(got, dims);
            let eb = arc.eb;
            for (o, r) in data.iter().zip(&recon) {
                let slack = eb * (1.0 + 1e-6) + (o.abs() as f64) * f32::EPSILON as f64;
                assert!(((o - r).abs() as f64) <= slack, "{o} vs {r} (eb {eb})");
            }
        }
    }

    #[test]
    fn f64_chunked_round_trip() {
        let data: Vec<f64> = (0..30_000)
            .map(|i| (i as f64 * 0.001).sin() * 5.0)
            .collect();
        let c = Compressor::default();
        let pool = WorkerPool::new(2);
        let arc = c
            .compress_chunked_with(&data, Dims::D1(30_000), 7_000, &pool)
            .unwrap();
        assert_eq!(arc.dtype, Dtype::F64);
        let parsed = ChunkedArchive::from_bytes(&arc.to_bytes()).unwrap();
        let (recon, _) = parsed
            .decode(ReconstructEngine::FinePartialSum, &pool)
            .unwrap();
        for (o, r) in data.iter().zip(&recon) {
            assert!((o - r).abs() <= arc.eb * (1.0 + 1e-12), "{o} vs {r}");
        }
    }

    #[test]
    fn global_bound_resolution_differs_from_per_slab() {
        // First half is flat, second half spans a large range: per-slab
        // relative resolution would give the flat half a much tighter
        // bound than the global one.
        let mut data = vec![1.0f32; 20_000];
        for (i, x) in data[10_000..].iter_mut().enumerate() {
            *x = (i as f32) * 0.01;
        }
        let c = Compressor::new(Config {
            error_bound: ErrorBound::Relative(1e-3),
            ..Config::default()
        });
        let arc = c
            .compress_chunked_with(&data, Dims::D1(20_000), 5_000, &WorkerPool::new(2))
            .unwrap();
        let global_eb = ErrorBound::Relative(1e-3).absolute(&data);
        assert_eq!(arc.eb, global_eb);
        for chunk in &arc.chunks {
            assert_eq!(
                chunk.eb, global_eb,
                "every chunk must carry the global bound"
            );
        }
    }

    #[test]
    fn per_chunk_workflows_can_differ() {
        // Flat region (RLE territory) followed by rough region (Huffman
        // territory): with per-chunk histograms the selector can pick a
        // different workflow for each chunk.
        let mut data = vec![0.5f32; 131_072];
        for (i, x) in data[65_536..].iter_mut().enumerate() {
            let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40;
            *x = (h & 0x3FF) as f32 / 1024.0 * 10.0;
        }
        let c = Compressor::new(Config {
            error_bound: ErrorBound::Absolute(0.05),
            workflow: WorkflowMode::Auto,
            ..Config::default()
        });
        let arc = c
            .compress_chunked_with(&data, Dims::D1(131_072), 65_536, &WorkerPool::new(2))
            .unwrap();
        assert_eq!(arc.n_chunks(), 2);
        let tags: Vec<bool> = arc
            .chunks
            .iter()
            .map(|ch| matches!(ch.payload, crate::CodesPayload::Huffman(_)))
            .collect();
        assert_ne!(tags[0], tags[1], "chunks must select different workflows");
    }

    #[test]
    fn empty_field_chunked() {
        let c = Compressor::default();
        let pool = WorkerPool::new(2);
        let arc = c
            .compress_chunked_with::<f32>(&[], Dims::D1(0), DEFAULT_CHUNK_ELEMS, &pool)
            .unwrap();
        assert_eq!(arc.n_chunks(), 0);
        let parsed = ChunkedArchive::from_bytes(&arc.to_bytes()).unwrap();
        let (recon, dims) = parsed
            .decompress_with(ReconstructEngine::FinePartialSum, &pool)
            .unwrap();
        assert!(recon.is_empty());
        assert_eq!(dims, Dims::D1(0));
    }

    #[test]
    fn rejects_bad_inputs_and_corruption() {
        let c = Compressor::default();
        let pool = WorkerPool::new(2);
        assert!(matches!(
            c.compress_chunked_with(&[1.0f32, 2.0], Dims::D1(3), DEFAULT_CHUNK_ELEMS, &pool),
            Err(CuszpError::DimsMismatch { .. })
        ));
        assert!(matches!(
            c.compress_chunked_with(
                &[1.0, f32::NAN, 0.0, 0.0],
                Dims::D1(4),
                DEFAULT_CHUNK_ELEMS,
                &pool
            ),
            Err(CuszpError::NonFiniteInput)
        ));

        let data = field(10_000);
        let arc = c
            .compress_chunked_with(&data, Dims::D1(10_000), 2_500, &WorkerPool::new(2))
            .unwrap();
        let bytes = arc.to_bytes();
        assert!(ChunkedArchive::from_bytes(&bytes[..CHUNKED_HEADER_BYTES - 1]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(ChunkedArchive::from_bytes(&bad).is_err(), "bad magic");
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 3] ^= 0x10; // payload flip inside the last chunk
        assert!(
            ChunkedArchive::from_bytes(&bad).is_err(),
            "chunk checksum must catch flips"
        );
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(ChunkedArchive::from_bytes(&bad).is_err(), "trailing bytes");
    }

    #[test]
    fn parity_archives_round_trip_and_extend_plain_bytes() {
        let data = field(50_000);
        let c = Compressor::default();
        let pool = WorkerPool::new(2);
        let plain = c
            .compress_chunked_with(&data, Dims::D1(50_000), 8_000, &pool)
            .unwrap();
        let cfg = crate::ParityConfig {
            data_shards: 4,
            parity_shards: 2,
        };
        let with_parity = c
            .compress_chunked_with_parity(&data, Dims::D1(50_000), 8_000, &pool, cfg)
            .unwrap();
        let sec = with_parity.parity.as_ref().expect("parity section present");
        assert!(sec.n_stripes >= 2, "fixture must span multiple stripes");

        // The parity section is strictly additive: the prefix is the
        // parity-less archive, byte for byte.
        let plain_bytes = plain.to_bytes();
        let parity_bytes = with_parity.to_bytes();
        assert_eq!(parity_bytes.len(), with_parity.serialized_bytes());
        assert_eq!(&parity_bytes[..plain_bytes.len()], &plain_bytes[..]);
        assert!(parity_bytes.len() > plain_bytes.len());

        // Round trip through the strict parser, then decompress.
        let parsed = ChunkedArchive::from_bytes(&parity_bytes).unwrap();
        assert_eq!(parsed, with_parity);
        let (recon, dims) = parsed
            .decompress_with(ReconstructEngine::FinePartialSum, &pool)
            .unwrap();
        assert_eq!(dims, Dims::D1(50_000));
        for (o, r) in data.iter().zip(&recon) {
            let slack = with_parity.eb * (1.0 + 1e-6) + (o.abs() as f64) * f32::EPSILON as f64;
            assert!(((o - r).abs() as f64) <= slack, "{o} vs {r}");
        }

        // Deterministic at any pool width.
        for workers in [1, 8] {
            let other = c
                .compress_chunked_with_parity(
                    &data,
                    Dims::D1(50_000),
                    8_000,
                    &WorkerPool::new(workers),
                    cfg,
                )
                .unwrap();
            assert_eq!(other.to_bytes(), parity_bytes, "{workers} workers");
        }

        // A flipped parity byte is caught by the strict parser.
        let mut bad = parity_bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(ChunkedArchive::from_bytes(&bad).is_err());
        // Junk that is not a parity section stays a trailer error.
        let mut bad = plain_bytes.clone();
        bad.extend_from_slice(b"junk");
        assert!(matches!(
            ChunkedArchive::from_bytes(&bad),
            Err(CuszpError::MalformedArchive(f)) if f.section == ArchiveSection::Trailer
        ));
    }

    #[test]
    fn top_level_decompress_sniffs_chunked_magic() {
        let data = field(20_000);
        let c = Compressor::default();
        let chunked = c
            .compress_chunked_with(&data, Dims::D1(20_000), 5_000, &WorkerPool::new(2))
            .unwrap();
        let (recon, dims) = crate::decompress::<f32>(&chunked.to_bytes()).unwrap();
        assert_eq!(dims, Dims::D1(20_000));
        assert_eq!(recon.len(), data.len());
        // v1 single-chunk archives still decompress through the same door.
        let v1 = c.compress(&data, Dims::D1(20_000)).unwrap();
        let (recon1, _) = crate::decompress::<f32>(&v1.to_bytes()).unwrap();
        assert_eq!(recon1.len(), data.len());
    }
}
