//! Double-precision (f64) pipeline tests — the paper's "64× for double"
//! path (Miranda is natively double; the paper converts it to float only
//! because original cuSZ lacked double support).

use cuszp::analysis::WorkflowChoice;
use cuszp::{Compressor, Config, Dims, Dtype, ErrorBound, ReconstructEngine, WorkflowMode};

fn field_f64(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.0031).sin() * 7.0 + (i as f64 * 0.0007).cos() * 2.0)
        .collect()
}

#[test]
fn f64_round_trip_all_ranks_and_engines() {
    let data = field_f64(6000);
    let cases = [
        (Dims::D1(6000), &data[..6000]),
        (Dims::D2 { ny: 60, nx: 100 }, &data[..6000]),
        (
            Dims::D3 {
                nz: 10,
                ny: 20,
                nx: 30,
            },
            &data[..6000],
        ),
    ];
    for (dims, slice) in cases {
        let config = Config {
            error_bound: ErrorBound::Absolute(1e-6), // beyond f32 precision
            ..Config::default()
        };
        let archive = Compressor::new(config).compress(slice, dims).unwrap();
        assert_eq!(archive.dtype, Dtype::F64);
        let bytes = archive.to_bytes();
        for engine in ReconstructEngine::ALL {
            let (recon, got_dims) = cuszp::decompress_with_engine::<f64>(&bytes, engine).unwrap();
            assert_eq!(got_dims, dims);
            for (o, r) in slice.iter().zip(&recon) {
                assert!(
                    (o - r).abs() <= 1e-6 * (1.0 + 1e-9),
                    "f64 bound violated: {o} vs {r} ({})",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn f64_bound_below_f32_precision_is_honored() {
    // A bound of 1e-9 on O(1) values is unreachable in f32 (ULP ≈ 1e-7)
    // but must hold exactly in the f64 pipeline.
    let data = field_f64(4096);
    let config = Config {
        error_bound: ErrorBound::Absolute(1e-9),
        ..Config::default()
    };
    let archive = Compressor::new(config)
        .compress(&data, Dims::D1(4096))
        .unwrap();
    let (recon, _) = cuszp::decompress::<f64>(&archive.to_bytes()).unwrap();
    for (o, r) in data.iter().zip(&recon) {
        assert!((o - r).abs() <= 1e-9 * (1.0 + 1e-9), "{o} vs {r}");
    }
}

#[test]
fn f64_smooth_data_exceeds_the_32x_float_cap() {
    // The Huffman bit-rate floor is 1 bit/element regardless of width,
    // so doubles can reach ~64× where floats cap at ~32×.
    let data = vec![1.0f64; 1 << 20];
    let config = Config {
        error_bound: ErrorBound::Absolute(1e-3),
        workflow: WorkflowMode::Force(WorkflowChoice::Huffman),
        ..Config::default()
    };
    let (_, stats) = Compressor::new(config)
        .compress_with_stats(&data, Dims::D1(1 << 20))
        .unwrap();
    assert!(
        stats.compression_ratio() > 32.0,
        "double-precision Huffman CR should exceed the float cap: {}",
        stats.compression_ratio()
    );
    assert!(stats.compression_ratio() <= 70.0, "but stay near 64x");
}

#[test]
fn dtype_mismatch_is_a_clean_error() {
    let data = field_f64(1000);
    let archive = Compressor::default()
        .compress(&data, Dims::D1(1000))
        .unwrap();
    let bytes = archive.to_bytes();
    // f32 entry point on an f64 archive:
    let err = cuszp::decompress::<f32>(&bytes).unwrap_err();
    assert!(
        matches!(err, cuszp::CuszpError::DtypeMismatch { .. }),
        "{err}"
    );
    // And the reverse:
    let f32_archive = Compressor::default()
        .compress(&[1.0f32; 100], Dims::D1(100))
        .unwrap()
        .to_bytes();
    let err = cuszp::decompress::<f64>(&f32_archive).unwrap_err();
    assert!(
        matches!(err, cuszp::CuszpError::DtypeMismatch { .. }),
        "{err}"
    );
}

#[test]
fn f64_stats_account_eight_byte_elements() {
    let data = field_f64(10_000);
    let (_, stats) = Compressor::default()
        .compress_with_stats(&data, Dims::D1(10_000))
        .unwrap();
    assert_eq!(stats.original_bytes, 80_000);
}
