//! Property-based end-to-end tests: arbitrary fields, dims, bounds, and
//! workflows through the full serialize/parse pipeline.

use cuszp::{Compressor, Config, Dims, ErrorBound, WorkflowChoice, WorkflowMode};
use proptest::prelude::*;

fn arb_dims() -> impl Strategy<Value = Dims> {
    prop_oneof![
        (1usize..3000).prop_map(Dims::D1),
        ((1usize..40), (1usize..40)).prop_map(|(ny, nx)| Dims::D2 { ny, nx }),
        ((1usize..12), (1usize..12), (1usize..12)).prop_map(|(nz, ny, nx)| Dims::D3 { nz, ny, nx }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_fields_round_trip(
        dims in arb_dims(),
        seed in any::<u64>(),
        eb_exp in -4i32..-1,
        wf in prop::sample::select(vec![
            WorkflowMode::Auto,
            WorkflowMode::Force(WorkflowChoice::Huffman),
            WorkflowMode::Force(WorkflowChoice::Rle),
            WorkflowMode::Force(WorkflowChoice::RleVle),
        ]),
    ) {
        let n = dims.len();
        // Mixed-character data: smooth base + noise + occasional spikes.
        let data: Vec<f32> = (0..n).map(|i| {
            let h = (seed ^ i as u64).wrapping_mul(0x9E3779B97F4A7C15);
            let noise = ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
            let spike = if h.is_multiple_of(997) { 50.0 } else { 0.0 };
            (i as f32 * 0.01).sin() * 3.0 + noise + spike
        }).collect();
        let eb = 10f64.powi(eb_exp);
        let config = Config {
            error_bound: ErrorBound::Absolute(eb),
            workflow: wf,
            ..Config::default()
        };
        let archive = Compressor::new(config).compress(&data, dims).unwrap();
        let bytes = archive.to_bytes();
        let (recon, got_dims) = cuszp::decompress::<f32>(&bytes).unwrap();
        prop_assert_eq!(got_dims, dims);
        for (o, r) in data.iter().zip(&recon) {
            let slack = eb * (1.0 + 1e-6) + (o.abs() as f64) * f32::EPSILON as f64;
            prop_assert!(
                ((o - r).abs() as f64) <= slack,
                "bound {} violated: {} vs {}", eb, o, r
            );
        }
    }

    #[test]
    fn constant_fields_compress_and_round_trip(
        value in -1e6f32..1e6,
        n in 1usize..5000,
    ) {
        let data = vec![value; n];
        let config = Config {
            error_bound: ErrorBound::Absolute(1e-3 * (value.abs() as f64 + 1.0)),
            ..Config::default()
        };
        let eb = config.error_bound.absolute(&data);
        let archive = Compressor::new(config).compress(&data, Dims::D1(n)).unwrap();
        let (recon, _) = cuszp::decompress::<f32>(&archive.to_bytes()).unwrap();
        for (o, r) in data.iter().zip(&recon) {
            let slack = eb * (1.0 + 1e-6) + (o.abs() as f64) * f32::EPSILON as f64;
            prop_assert!(((o - r).abs() as f64) <= slack);
        }
    }

    #[test]
    fn archive_parse_never_panics_on_mutations(
        mutation_pos in 0usize..500,
        mutation_val in any::<u8>(),
    ) {
        let data: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.02).cos()).collect();
        let archive = Compressor::default().compress(&data, Dims::D1(1000)).unwrap();
        let mut bytes = archive.to_bytes();
        let pos = mutation_pos % bytes.len();
        bytes[pos] = mutation_val;
        // Must return (not panic); content equality checks are the
        // checksum's job, exercised elsewhere.
        let _ = cuszp::decompress::<f32>(&bytes);
    }
}
