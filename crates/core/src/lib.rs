//! cuSZ+ compression pipeline: the public API of the reproduction.
//!
//! ```text
//!            ┌────────────── compression ──────────────┐
//!  f32 field → prequant → Lorenzo+postquant → [analyze] → Workflow-Huffman
//!                                   │                     or Workflow-RLE(+VLE)
//!                                   └→ gather outliers  → archive
//!
//!            ┌───────────── decompression ─────────────┐
//!  archive → decode codes → fuse outliers → N-D partial-sum → dequant → f32
//! ```
//!
//! The two workflow paths and the histogram-driven selection between them
//! are the paper's §III contribution; the partial-sum reconstruction is
//! §IV. See [`Config`] for the adaptive/forced workflow switch and
//! [`Compressor::compress`] / [`decompress`] for the entry points.
//!
//! Every entry point is generic over the element type ([`Scalar`]:
//! `f32` or `f64`); one pipeline serves both precisions, and a decode
//! into the wrong type is a typed [`CuszpError::DtypeMismatch`]. Callers
//! that do not know an archive's type read it with [`Dtype::of_archive`].
//!
//! # Example
//!
//! ```
//! use cuszp_core::{Compressor, Config, ErrorBound};
//! use cuszp_predictor::Dims;
//!
//! let field: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
//! let config = Config { error_bound: ErrorBound::Relative(1e-3), ..Config::default() };
//! let compressor = Compressor::new(config);
//! let archive = compressor.compress(&field, Dims::D1(4096)).unwrap();
//! let bytes = archive.to_bytes();
//!
//! let (recon, dims) = cuszp_core::decompress::<f32>(&bytes).unwrap();
//! assert_eq!(dims, Dims::D1(4096));
//! for (o, r) in field.iter().zip(&recon) {
//!     assert!((o - r).abs() <= 2e-3 * 2.0); // range = 2 → abs eb = 2e-3
//! }
//!
//! // The same calls take an f64 field; the archive records the type.
//! let wide: Vec<f64> = field.iter().map(|&x| f64::from(x)).collect();
//! let bytes = compressor.compress(&wide, Dims::D1(4096)).unwrap().to_bytes();
//! assert_eq!(cuszp_core::Dtype::of_archive(&bytes), Some(cuszp_core::Dtype::F64));
//! let (recon, _) = cuszp_core::decompress::<f64>(&bytes).unwrap();
//! assert_eq!(recon.len(), wide.len());
//! ```

mod archive;
mod chunked;
mod engine;
mod error;
mod parity;
mod range;
mod recovery;
mod report;
mod snapshot;
mod stats;
mod workflow;

pub use archive::{Archive, Dtype};
pub use chunked::{is_chunked_archive, ChunkedArchive};
pub use engine::PipelineEngine;
pub use error::{ArchiveSection, CuszpError, ParseFault};
pub use parity::{ParityConfig, ParitySection};
pub use range::{decompress_range, decompress_range_with_fetch, slice_field, RangeSpec};
pub use recovery::{
    decompress_range_resilient, decompress_resilient, repair, scan, ChunkReport, ChunkStatus,
    FillPolicy, ParityReport, RecoveredField, RepairOutcome, ScanReport, StripeStatus,
};
pub use report::{
    json_escape, PortableChunkReport, PortableChunkStatus, PortableParityReport,
    PortableScanReport, PortableStripeStatus, REPORT_VERSION,
};
pub use snapshot::{Snapshot, SnapshotEntry};
pub use stats::{ChunkedStats, CompressionStats};
pub use workflow::{CodesPayload, WorkflowMode};

pub use cuszp_analysis::{CompressibilityReport, WorkflowChoice};
pub use cuszp_predictor::{Dims, ReconstructEngine, Scalar};

/// Which prediction scheme drives quantization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Predictor {
    /// First-order Lorenzo (the paper's default; partial-sum
    /// reconstruction).
    #[default]
    Lorenzo,
    /// Multi-level cubic interpolation (SZ3-style; the paper's cited
    /// follow-up direction). Often stronger on long-range-smooth 3-D
    /// fields; reconstruction is level-parallel.
    Interpolation,
}

impl Predictor {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Predictor::Lorenzo => "lorenzo",
            Predictor::Interpolation => "interpolation",
        }
    }

    /// The stage implementation driving this predictor in the pipeline.
    pub fn stage(&self) -> &'static dyn cuszp_predictor::PredictorStage {
        match self {
            Predictor::Lorenzo => &cuszp_predictor::LorenzoStage,
            Predictor::Interpolation => &cuszp_predictor::InterpolationStage,
        }
    }
}

/// How each chunk's predictor is chosen — the codec-plan counterpart of
/// [`WorkflowMode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorMode {
    /// Score both predictors on the chunk's prequantized field
    /// ([`cuszp_analysis::score_predictors`]) and pick per chunk.
    Auto,
    /// Always the given predictor.
    Force(Predictor),
}

impl Default for PredictorMode {
    fn default() -> Self {
        PredictorMode::Force(Predictor::Lorenzo)
    }
}

impl From<Predictor> for PredictorMode {
    fn from(p: Predictor) -> Self {
        PredictorMode::Force(p)
    }
}

/// Whether the optional post-coding lossless stage may be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LosslessMode {
    /// Never wrap the coded section (the default; byte-compatible with
    /// every pre-plan archive).
    #[default]
    Off,
    /// Wrap each chunk's coded section in bitshuffle + LZ77 when a
    /// sampled-prefix probe predicts it pays.
    Auto,
}

/// The lossless stage an archive's coded section actually went through —
/// recorded per chunk in the plan descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LosslessStage {
    /// Codes section stored plain.
    #[default]
    None,
    /// Codes section bitshuffled then LZ77+Huffman coded.
    BitshuffleLz77,
}

impl LosslessStage {
    /// Display name ("none" / "lz77").
    pub fn name(&self) -> &'static str {
        match self {
            LosslessStage::None => "none",
            LosslessStage::BitshuffleLz77 => "lz77",
        }
    }
}

/// The per-chunk codec plan an archive records: which predictor produced
/// the quant-codes, how they were entropy-coded, and whether a lossless
/// stage wraps the coded section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecPlan {
    /// Prediction scheme.
    pub predictor: Predictor,
    /// Entropy-coding workflow.
    pub workflow: WorkflowChoice,
    /// Post-coding lossless stage.
    pub lossless: LosslessStage,
}

impl CodecPlan {
    /// Compact label, e.g. `lorenzo+huffman` or `interpolation+rle+lz77`.
    pub fn label(&self) -> String {
        let wf = match self.workflow {
            WorkflowChoice::Huffman => "huffman",
            WorkflowChoice::Rle => "rle",
            WorkflowChoice::RleVle => "rle+vle",
        };
        let mut s = format!("{}+{}", self.predictor.name(), wf);
        if self.lossless == LosslessStage::BitshuffleLz77 {
            s.push_str("+lz77");
        }
        s
    }
}

/// How the error bound is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute bound: `max |orig − recon| ≤ eb`.
    Absolute(f64),
    /// Bound relative to the field's value range: `eb_abs = eb · range`.
    /// This is the mode of all the paper's experiments.
    Relative(f64),
}

impl ErrorBound {
    /// Resolves to an absolute bound given the data.
    ///
    /// A constant field has zero range; the relative mode falls back to a
    /// tiny absolute bound so the pipeline stays well-defined.
    pub fn absolute<T: Scalar>(&self, data: &[T]) -> f64 {
        match *self {
            ErrorBound::Absolute(eb) => eb,
            ErrorBound::Relative(_) => {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for x in data {
                    let v = x.to_f64();
                    if v < lo {
                        lo = v;
                    }
                    if v > hi {
                        hi = v;
                    }
                }
                let range = if data.is_empty() { 0.0 } else { hi - lo };
                self.absolute_for_range(range)
            }
        }
    }

    /// Resolves against an already-measured value range, so callers that
    /// scan the data anyway (see the pipeline engine's fused validation
    /// pass) don't scan it twice. A non-positive range (constant or empty
    /// field) falls back to the tiny absolute bound.
    pub fn absolute_for_range(&self, range: f64) -> f64 {
        match *self {
            ErrorBound::Absolute(eb) => eb,
            ErrorBound::Relative(rel) => {
                if range > 0.0 {
                    rel * range
                } else {
                    rel.max(f64::MIN_POSITIVE)
                }
            }
        }
    }
}

/// Compression configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Error bound (default: relative 1e-4, the paper's default).
    pub error_bound: ErrorBound,
    /// Quantization bins (default 1024, must be even, ≥ 4).
    pub cap: u16,
    /// Coding workflow: adaptive (paper's framework) or forced.
    pub workflow: WorkflowMode,
    /// Prediction scheme: forced (default: first-order Lorenzo) or
    /// scored per chunk.
    pub predictor: PredictorMode,
    /// Optional post-coding lossless stage (default: off).
    pub lossless: LosslessMode,
    /// Reconstruction engine used by [`decompress_archive`]'s convenience
    /// path (decompression can also pick per call).
    pub engine: ReconstructEngine,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            error_bound: ErrorBound::Relative(1e-4),
            cap: cuszp_predictor::DEFAULT_CAP,
            workflow: WorkflowMode::Auto,
            predictor: PredictorMode::default(),
            lossless: LosslessMode::default(),
            engine: ReconstructEngine::FinePartialSum,
        }
    }
}

/// The compressor: a configured pipeline front-end.
#[derive(Debug, Clone, Default)]
pub struct Compressor {
    config: Config,
}

impl Compressor {
    /// Creates a compressor with the given configuration.
    pub fn new(config: Config) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Compresses a field, returning the single-chunk (v1) archive.
    /// `f64` fields raise the Huffman-cap ratio to 64× (the paper's
    /// double-precision note).
    pub fn compress<T: Scalar>(&self, data: &[T], dims: Dims) -> Result<Archive, CuszpError> {
        self.compress_with_stats(data, dims).map(|(a, _)| a)
    }

    /// [`Compressor::compress`] also reporting per-stage statistics.
    pub fn compress_with_stats<T: Scalar>(
        &self,
        data: &[T],
        dims: Dims,
    ) -> Result<(Archive, CompressionStats), CuszpError> {
        let range = engine::validate_and_range(data, dims)?;
        let eb = engine::resolve_bound(self.config.error_bound, range)?;
        PipelineEngine::new().compress(&self.config, data, dims, eb)
    }
}

/// Decompresses archive bytes back into a field of `T`.
///
/// Accepts both v1 single-chunk archives and v2 chunked containers
/// (dispatched on the magic); chunked containers reconstruct in
/// parallel, one worker per chunk.
pub fn decompress<T: Scalar>(bytes: &[u8]) -> Result<(Vec<T>, Dims), CuszpError> {
    decompress_with_engine(bytes, ReconstructEngine::FinePartialSum)
}

/// Decompression with an explicit reconstruction engine (for the
/// engine-comparison experiments). Accepts v1 and chunked v2 bytes.
pub fn decompress_with_engine<T: Scalar>(
    bytes: &[u8],
    engine: ReconstructEngine,
) -> Result<(Vec<T>, Dims), CuszpError> {
    if is_chunked_archive(bytes) {
        return ChunkedArchive::from_bytes(bytes)?
            .decode(engine, &cuszp_parallel::WorkerPool::with_default_workers());
    }
    let archive = Archive::from_bytes(bytes)?;
    decompress_archive(&archive, engine)
}

/// Decompresses an already-parsed v1 archive.
pub fn decompress_archive<T: Scalar>(
    archive: &Archive,
    engine: ReconstructEngine,
) -> Result<(Vec<T>, Dims), CuszpError> {
    archive.dtype.check::<T>()?;
    let out = PipelineEngine::new().decompress(archive, engine)?;
    Ok((out, archive.dims))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_field(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.003).sin() * 7.0 + (i as f32 * 0.0011).cos())
            .collect()
    }

    fn check(config: Config, data: &[f32], dims: Dims) {
        let eb = config.error_bound.absolute(data);
        let c = Compressor::new(config);
        let (archive, stats) = c.compress_with_stats(data, dims).unwrap();
        let bytes = archive.to_bytes();
        assert!(stats.compressed_bytes > 0);
        for engine in ReconstructEngine::ALL {
            let (recon, got_dims) = decompress_with_engine(&bytes, engine).unwrap();
            assert_eq!(got_dims, dims);
            cuszp_metrics::verify_error_bound(data, &recon, eb)
                .unwrap_or_else(|(i, e)| panic!("bound violated at {i}: {e} > {eb}"));
        }
    }

    #[test]
    fn default_roundtrip_all_ranks() {
        let data = sample_field(6000);
        check(Config::default(), &data[..4096], Dims::D1(4096));
        check(
            Config::default(),
            &data[..4000],
            Dims::D2 { ny: 50, nx: 80 },
        );
        check(
            Config::default(),
            &data[..5760],
            Dims::D3 {
                nz: 9,
                ny: 20,
                nx: 32,
            },
        );
    }

    #[test]
    fn forced_workflows_roundtrip() {
        let data = sample_field(8192);
        for wf in [
            WorkflowMode::Auto,
            WorkflowMode::Force(WorkflowChoice::Huffman),
            WorkflowMode::Force(WorkflowChoice::Rle),
            WorkflowMode::Force(WorkflowChoice::RleVle),
        ] {
            let config = Config {
                workflow: wf,
                ..Config::default()
            };
            check(config, &data, Dims::D1(8192));
        }
    }

    #[test]
    fn absolute_and_relative_bounds() {
        let data = sample_field(4096);
        for eb in [ErrorBound::Absolute(0.01), ErrorBound::Relative(1e-3)] {
            let config = Config {
                error_bound: eb,
                ..Config::default()
            };
            check(config, &data, Dims::D1(4096));
        }
    }

    #[test]
    fn constant_field_compresses_enormously() {
        let data = vec![3.25f32; 100_000];
        let c = Compressor::new(Config {
            error_bound: ErrorBound::Absolute(1e-3),
            ..Config::default()
        });
        let (archive, stats) = c.compress_with_stats(&data, Dims::D1(100_000)).unwrap();
        // Every 256-element tile start is an outlier (d° = 1625 > radius),
        // so the outlier section bounds the CR near 256·4/16 ≈ 64.
        assert!(
            stats.compression_ratio() > 30.0,
            "CR = {}",
            stats.compression_ratio()
        );
        let (recon, _) = decompress::<f32>(&archive.to_bytes()).unwrap();
        for (o, r) in data.iter().zip(&recon) {
            assert!((o - r).abs() <= 1e-3 * 1.001);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let c = Compressor::default();
        assert!(matches!(
            c.compress(&[1.0, 2.0], Dims::D1(3)),
            Err(CuszpError::DimsMismatch { .. })
        ));
        assert!(matches!(
            c.compress(&[1.0, f32::NAN], Dims::D1(2)),
            Err(CuszpError::NonFiniteInput)
        ));
        let c = Compressor::new(Config {
            error_bound: ErrorBound::Absolute(-1.0),
            ..Config::default()
        });
        assert!(matches!(
            c.compress(&[1.0], Dims::D1(1)),
            Err(CuszpError::InvalidErrorBound(_))
        ));
    }

    #[test]
    fn corrupt_archives_are_rejected() {
        let data = sample_field(1024);
        let archive = Compressor::default()
            .compress(&data, Dims::D1(1024))
            .unwrap();
        let mut bytes = archive.to_bytes();
        assert!(
            decompress::<f32>(&bytes[..bytes.len() - 4]).is_err(),
            "truncated"
        );
        bytes[0] ^= 0xFF;
        assert!(decompress::<f32>(&bytes).is_err(), "bad magic");
        let mut bytes2 = archive.to_bytes();
        let n = bytes2.len();
        bytes2[n - 3] ^= 0x40;
        assert!(
            decompress::<f32>(&bytes2).is_err(),
            "checksum must catch payload flips"
        );
    }

    #[test]
    fn empty_field_roundtrips() {
        let archive = Compressor::default()
            .compress::<f32>(&[], Dims::D1(0))
            .unwrap();
        let (recon, dims) = decompress::<f32>(&archive.to_bytes()).unwrap();
        assert!(recon.is_empty());
        assert_eq!(dims, Dims::D1(0));
    }

    #[test]
    fn relative_bound_constant_field_uses_zero_range_fallback() {
        // Zero range: the relative mode falls back to `rel` itself as an
        // absolute bound instead of producing eb = 0 (which would divide
        // by zero in prequantization).
        let data = vec![5.25f32; 4096];
        let eb = ErrorBound::Relative(1e-3).absolute(&data);
        assert_eq!(eb, 1e-3);
        let c = Compressor::new(Config {
            error_bound: ErrorBound::Relative(1e-3),
            ..Config::default()
        });
        let archive = c.compress(&data, Dims::D1(4096)).unwrap();
        assert_eq!(archive.eb, eb);
        let (recon, _) = decompress::<f32>(&archive.to_bytes()).unwrap();
        for (o, r) in data.iter().zip(&recon) {
            assert!(((o - r).abs() as f64) <= eb * 1.001, "{o} vs {r}");
        }
    }

    #[test]
    fn relative_bound_empty_slice_resolves_positive() {
        // An empty field has no range at all; resolution must still give
        // a positive finite bound so compression of Dims::D1(0) succeeds.
        let eb = ErrorBound::Relative(1e-4).absolute::<f32>(&[]);
        assert!(eb.is_finite() && eb > 0.0, "eb = {eb}");
        let c = Compressor::new(Config {
            error_bound: ErrorBound::Relative(1e-4),
            ..Config::default()
        });
        let archive = c.compress::<f32>(&[], Dims::D1(0)).unwrap();
        let (recon, dims) = decompress::<f32>(&archive.to_bytes()).unwrap();
        assert!(recon.is_empty());
        assert_eq!(dims, Dims::D1(0));
    }

    #[test]
    fn relative_bound_single_element_roundtrips() {
        // One element: range 0, same fallback; the lone value must come
        // back within the resolved bound (it travels as an outlier when
        // it exceeds the quantization radius).
        let data = [42.5f32];
        let eb = ErrorBound::Relative(1e-2).absolute(&data);
        assert_eq!(eb, 1e-2);
        let c = Compressor::new(Config {
            error_bound: ErrorBound::Relative(1e-2),
            ..Config::default()
        });
        let archive = c.compress(&data, Dims::D1(1)).unwrap();
        let (recon, dims) = decompress::<f32>(&archive.to_bytes()).unwrap();
        assert_eq!(dims, Dims::D1(1));
        assert!(
            ((data[0] - recon[0]).abs() as f64)
                <= eb * 1.001 + data[0].abs() as f64 * f32::EPSILON as f64
        );
    }

    #[test]
    fn auto_mode_picks_rle_for_smooth_and_huffman_for_rough() {
        // Smooth: constant slices; Rough: white noise spanning tens of
        // quanta (kept inside the quantization range so the roughness
        // lands in the codes, not in the outlier list).
        let smooth = vec![1.0f32; 200_000];
        let rough: Vec<f32> = (0..200_000)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40;
                (h & 0x3FF) as f32 / 1024.0 * 10.0
            })
            .collect();
        let c = Compressor::new(Config {
            error_bound: ErrorBound::Absolute(0.05),
            ..Config::default()
        });
        let (_, s1) = c.compress_with_stats(&smooth, Dims::D1(200_000)).unwrap();
        let (_, s2) = c.compress_with_stats(&rough, Dims::D1(200_000)).unwrap();
        assert_ne!(s1.workflow, WorkflowChoice::Huffman, "smooth must take RLE");
        assert_eq!(
            s2.workflow,
            WorkflowChoice::Huffman,
            "rough must take Huffman"
        );
    }
}
