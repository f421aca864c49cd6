//! Golden-archive regression tests: the serialized bytes of every
//! container format, hashed and pinned.
//!
//! The hashes below were captured from the pre-`PipelineEngine` drivers;
//! the unified engine must reproduce every container **bit-identically**
//! (same prequant, same per-chunk histograms and codebooks, same section
//! order, same checksums). Any refactor that changes archive bytes —
//! intentionally or not — trips these before it trips a downstream
//! consumer.

use cuszp_core::{Compressor, Config, ErrorBound, Snapshot, WorkflowMode};
use cuszp_parallel::WorkerPool;
use cuszp_predictor::Dims;

/// FNV-1a 64-bit, the same hash the archive checksum uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Deterministic mixed-character field: smooth waves, a hash ripple, a
/// flat stretch (RLE territory), and sparse spikes (outlier territory).
fn field_f32(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            if i % 11 < 3 {
                1.75
            } else {
                let s = (i as f32 * 0.0019).sin() * 8.0 + (i as f32 * 0.00037).cos();
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 44;
                let spike = if i % 1013 == 0 { 300.0 } else { 0.0 };
                s + (h & 0x3FF) as f32 * 0.002 + spike
            }
        })
        .collect()
}

fn field_f64(n: usize) -> Vec<f64> {
    field_f32(n).into_iter().map(|x| x as f64).collect()
}

fn abs_compressor(eb: f64) -> Compressor {
    Compressor::new(Config {
        error_bound: ErrorBound::Absolute(eb),
        ..Config::default()
    })
}

#[test]
fn v1_archive_bytes_are_pinned_per_workflow() {
    use cuszp_core::WorkflowChoice;
    let data = field_f32(40_000);
    let cases: [(WorkflowMode, u64); 4] = [
        (WorkflowMode::Auto, GOLDEN_V1_AUTO),
        (
            WorkflowMode::Force(WorkflowChoice::Huffman),
            GOLDEN_V1_HUFFMAN,
        ),
        (WorkflowMode::Force(WorkflowChoice::Rle), GOLDEN_V1_RLE),
        (
            WorkflowMode::Force(WorkflowChoice::RleVle),
            GOLDEN_V1_RLEVLE,
        ),
    ];
    for (wf, want) in cases {
        let c = Compressor::new(Config {
            error_bound: ErrorBound::Absolute(1e-3),
            workflow: wf,
            ..Config::default()
        });
        let bytes = c
            .compress(&data, Dims::D2 { ny: 200, nx: 200 })
            .unwrap()
            .to_bytes();
        let got = fnv1a(&bytes);
        assert_eq!(
            got, want,
            "v1 {wf:?} archive bytes drifted: fnv {got:#018x} (expected {want:#018x})"
        );
    }
}

#[test]
fn v1_f64_archive_bytes_are_pinned() {
    let data = field_f64(30_000);
    let bytes = abs_compressor(1e-3)
        .compress(&data, Dims::D1(30_000))
        .unwrap()
        .to_bytes();
    let got = fnv1a(&bytes);
    assert_eq!(got, GOLDEN_V1_F64, "f64 archive drifted: {got:#018x}");
}

#[test]
fn chunked_archive_bytes_are_pinned_at_1_2_8_workers() {
    let data = field_f32(120_000);
    let dims = Dims::D2 { ny: 300, nx: 400 };
    let c = Compressor::new(Config {
        error_bound: ErrorBound::Relative(1e-3),
        ..Config::default()
    });
    let reference = c
        .compress_chunked_with(&data, dims, 25_000, &WorkerPool::new(1))
        .unwrap()
        .to_bytes();
    for workers in [2usize, 8] {
        let bytes = c
            .compress_chunked_with(&data, dims, 25_000, &WorkerPool::new(workers))
            .unwrap()
            .to_bytes();
        assert_eq!(bytes, reference, "bytes diverged at {workers} workers");
    }
    let got = fnv1a(&reference);
    assert_eq!(got, GOLDEN_CSZ2_F32, "CSZ2 archive drifted: {got:#018x}");
}

#[test]
fn parity_extends_pinned_chunked_bytes_without_perturbing_them() {
    // Parity is strictly additive: a `--parity` archive must begin with
    // the exact bytes of the parity-less container (still matching the
    // pinned golden hash), followed by the CSZP section — and those
    // bytes must not depend on the worker count.
    use cuszp_core::ParityConfig;
    let data = field_f32(120_000);
    let dims = Dims::D2 { ny: 300, nx: 400 };
    let c = Compressor::new(Config {
        error_bound: ErrorBound::Relative(1e-3),
        ..Config::default()
    });
    let plain = c
        .compress_chunked_with(&data, dims, 25_000, &WorkerPool::new(1))
        .unwrap()
        .to_bytes();
    assert_eq!(fnv1a(&plain), GOLDEN_CSZ2_F32, "parity-less bytes drifted");
    let cfg = ParityConfig {
        data_shards: 8,
        parity_shards: 2,
    };
    let reference = c
        .compress_chunked_with_parity(&data, dims, 25_000, &WorkerPool::new(1), cfg)
        .unwrap()
        .to_bytes();
    assert!(reference.len() > plain.len(), "parity section missing");
    assert_eq!(
        &reference[..plain.len()],
        &plain[..],
        "parity perturbed the container bytes"
    );
    for workers in [2usize, 8] {
        let bytes = c
            .compress_chunked_with_parity(&data, dims, 25_000, &WorkerPool::new(workers), cfg)
            .unwrap()
            .to_bytes();
        assert_eq!(
            bytes, reference,
            "parity bytes diverged at {workers} workers"
        );
    }
}

#[test]
fn chunked_f64_archive_bytes_are_pinned() {
    let data = field_f64(60_000);
    let bytes = abs_compressor(5e-4)
        .compress_chunked_with(&data, Dims::D1(60_000), 16_000, &WorkerPool::new(2))
        .unwrap()
        .to_bytes();
    let got = fnv1a(&bytes);
    assert_eq!(
        got, GOLDEN_CSZ2_F64,
        "CSZ2 f64 archive drifted: {got:#018x}"
    );
}

#[test]
fn snapshot_bytes_are_pinned() {
    let mut snap = Snapshot::new();
    let c = abs_compressor(1e-3);
    let u = field_f32(20_000);
    let v: Vec<f32> = field_f32(20_000).iter().map(|x| x * 0.5 + 1.0).collect();
    let dims = Dims::D2 { ny: 100, nx: 200 };
    snap.add_field(&c, "U", &u, dims).unwrap();
    snap.add_field(&c, "V", &v, dims).unwrap();
    let got = fnv1a(&snap.to_bytes());
    assert_eq!(got, GOLDEN_CSSN, "snapshot drifted: {got:#018x}");
}

#[test]
fn recovery_of_pinned_archive_is_bit_exact() {
    // The recovery driver: per-chunk recovery decode must reproduce the
    // strict path bit-for-bit on an undamaged container.
    let data = field_f32(120_000);
    let dims = Dims::D2 { ny: 300, nx: 400 };
    let c = Compressor::new(Config {
        error_bound: ErrorBound::Relative(1e-3),
        ..Config::default()
    });
    let bytes = c
        .compress_chunked_with(&data, dims, 25_000, &WorkerPool::new(1))
        .unwrap()
        .to_bytes();
    let strict = cuszp_core::decompress::<f32>(&bytes).unwrap().0;
    let rec = cuszp_core::decompress_resilient::<f32>(&bytes, cuszp_core::FillPolicy::Nan).unwrap();
    assert!(rec.is_clean());
    assert_eq!(rec.data, strict);
    let raw: Vec<u8> = strict.iter().flat_map(|x| x.to_le_bytes()).collect();
    let got = fnv1a(&raw);
    assert_eq!(got, GOLDEN_RECON_F32, "reconstruction drifted: {got:#018x}");
}

/// The v1 plan descriptor occupies bytes 42..48 of the header: dtype,
/// predictor, lossless stage, three reserved zero bytes. Pre-plan
/// archives wrote zeros there, so the layout below is what every pinned
/// golden above already hashes — this test documents it explicitly and
/// pins the plan-bearing variants.
#[test]
fn plan_descriptor_layout_is_documented() {
    use cuszp_core::{LosslessMode, LosslessStage, Predictor, PredictorMode};
    let data = field_f32(40_000);
    let dims = Dims::D1(40_000);

    // Default plan (Lorenzo, no lossless): descriptor is all zeros for
    // f32 — byte-identical to what pre-plan writers produced.
    let bytes = abs_compressor(1e-3)
        .compress(&data, dims)
        .unwrap()
        .to_bytes();
    assert_eq!(&bytes[42..48], &[0, 0, 0, 0, 0, 0], "default descriptor");

    // Forced interpolation: predictor byte 43 becomes 1, everything
    // else in the descriptor stays zero.
    let c = Compressor::new(Config {
        error_bound: ErrorBound::Absolute(1e-3),
        predictor: PredictorMode::Force(Predictor::Interpolation),
        ..Config::default()
    });
    let bytes = c.compress(&data, dims).unwrap().to_bytes();
    assert_eq!(&bytes[42..48], &[0, 1, 0, 0, 0, 0], "interp descriptor");

    // A highly repetitive field's coded section takes the lossless
    // wrap: byte 44 becomes 1 and the archive re-serializes to the
    // exact stored bytes after a parse round trip.
    let flat: Vec<f32> = (0..100_000).map(|i| (i as f32) * 1e-5).collect();
    let c = Compressor::new(Config {
        error_bound: ErrorBound::Absolute(1e-3),
        lossless: LosslessMode::Auto,
        ..Config::default()
    });
    let bytes = c.compress(&flat, Dims::D1(100_000)).unwrap().to_bytes();
    assert_eq!(bytes[44], 1, "lossless wrap must engage on flat codes");
    let parsed = cuszp_core::Archive::from_bytes(&bytes).unwrap();
    assert_eq!(parsed.lossless, LosslessStage::BitshuffleLz77);
    assert_eq!(parsed.to_bytes(), bytes, "reserialization must be stable");
    let (recon, _) = cuszp_core::decompress(&bytes).unwrap();
    for (o, r) in flat.iter().zip(&recon) {
        assert!((o - r).abs() <= 1e-3 * 1.0001);
    }
}

// Pinned FNV-1a hashes of the serialized containers (pre-refactor bytes).
const GOLDEN_V1_AUTO: u64 = 0xd1a6_0730_8a54_4497;
const GOLDEN_V1_HUFFMAN: u64 = 0xd1a6_0730_8a54_4497; // auto picks huffman here
const GOLDEN_V1_RLE: u64 = 0x838e_ff9d_8a46_bbc6;
const GOLDEN_V1_RLEVLE: u64 = 0x52cc_bf7c_fcc2_314b;
const GOLDEN_V1_F64: u64 = 0x0df1_5c34_2bdd_adb3;
const GOLDEN_CSZ2_F32: u64 = 0x178d_33d0_f8a9_00b4;
const GOLDEN_CSZ2_F64: u64 = 0x084f_8668_5ca2_fa3b;
const GOLDEN_CSSN: u64 = 0x7bc3_743f_3863_5fa9;
const GOLDEN_RECON_F32: u64 = 0xef1c_7873_1edc_c786;
