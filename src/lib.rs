//! # cuszp — a Rust reproduction of cuSZ+ (IEEE CLUSTER 2021)
//!
//! Compressibility-aware error-bounded lossy compression for scientific
//! floating-point data, after *"Optimizing Error-Bounded Lossy Compression
//! for Scientific Data on GPUs"* (Tian, Di, Yu, Rivera, Zhao, Jin, Feng,
//! Liang, Tao, Cappello — CLUSTER 2021).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `cuszp-core` | [`Compressor`], [`Config`], archive format |
//! | [`predictor`] | `cuszp-predictor` | dual-quant, Lorenzo, partial-sum engines |
//! | [`huffman`] | `cuszp-huffman` | multi-byte canonical Huffman |
//! | [`rle`] | `cuszp-rle` | run-length encoding (+ optional VLE) |
//! | [`analysis`] | `cuszp-analysis` | madogram smoothness, workflow selector |
//! | [`lossless`] | `cuszp-lossless` | DEFLATE-style gzip stand-in |
//! | [`zfp`] | `cuszp-zfp` | fixed-rate transform baseline (cuZFP analog) |
//! | [`gpusim`] | `cuszp-gpusim` | SIMT simulator + V100/A100 cost model |
//! | [`datagen`] | `cuszp-datagen` | synthetic SDRBench-style datasets |
//! | [`metrics`] | `cuszp-metrics` | PSNR/NRMSE, bound checks, throughput |
//! | [`parallel`] | `cuszp-parallel` | the data-parallel executor |
//! | [`server`] | `cuszp-server` | CSRP wire protocol, TCP service, client |
//! | [`store`] | `cuszp-store` | log-structured durable shard store |
//!
//! ## Quickstart
//!
//! ```
//! use cuszp::{Compressor, Config, ErrorBound, Dims};
//!
//! let field: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.002).sin()).collect();
//! let compressor = Compressor::new(Config {
//!     error_bound: ErrorBound::Relative(1e-3),
//!     ..Config::default()
//! });
//! let (archive, stats) = compressor
//!     .compress_with_stats(&field, Dims::D1(10_000))
//!     .unwrap();
//! println!("{stats}");
//!
//! let (recon, _) = cuszp::decompress::<f32>(&archive.to_bytes()).unwrap();
//! let range = 2.0_f64; // sin spans [-1, 1]
//! for (o, r) in field.iter().zip(&recon) {
//!     assert!(((o - r).abs() as f64) <= 1e-3 * range * 1.001);
//! }
//! ```

pub use cuszp_analysis as analysis;
pub use cuszp_core as core;
pub use cuszp_datagen as datagen;
pub use cuszp_faultsim as faultsim;
pub use cuszp_gpusim as gpusim;
pub use cuszp_huffman as huffman;
pub use cuszp_lossless as lossless;
pub use cuszp_metrics as metrics;
pub use cuszp_parallel as parallel;
pub use cuszp_predictor as predictor;
pub use cuszp_rle as rle;
pub use cuszp_server as server;
pub use cuszp_store as store;
pub use cuszp_zfp as zfp;

// The everyday API, flattened.
pub use cuszp_core::{
    decompress, decompress_archive, decompress_range, decompress_range_resilient,
    decompress_resilient, decompress_with_engine, is_chunked_archive, json_escape, repair, scan,
    Archive, ArchiveSection, ChunkReport, ChunkStatus, ChunkedArchive, CodecPlan, CompressionStats,
    Compressor, Config, CuszpError, Dims, Dtype, ErrorBound, FillPolicy, LosslessMode,
    LosslessStage, ParityConfig, ParityReport, ParitySection, ParseFault, PortableChunkReport,
    PortableChunkStatus, PortableParityReport, PortableScanReport, PortableStripeStatus, Predictor,
    PredictorMode, RangeSpec, ReconstructEngine, RecoveredField, RepairOutcome, ScanReport,
    Snapshot, SnapshotEntry, StripeStatus, WorkflowChoice, WorkflowMode,
};
