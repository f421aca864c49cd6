//! End-to-end integration: every dataset class × every workflow × every
//! reconstruction engine must round-trip through serialized archives
//! within the error bound.

use cuszp::datagen::{dataset_fields, generate, DatasetKind, Scale};
use cuszp::metrics::verify_error_bound;
use cuszp::{Compressor, Config, ErrorBound, ReconstructEngine, WorkflowChoice, WorkflowMode};

#[test]
fn every_dataset_round_trips_under_every_workflow() {
    for kind in DatasetKind::ALL {
        // First and last field of each dataset: covers both regimes.
        let specs = dataset_fields(kind);
        let picks = [specs[0], *specs.last().unwrap()];
        for spec in picks {
            let field = generate(&spec, Scale::Tiny);
            for wf in [
                WorkflowMode::Auto,
                WorkflowMode::Force(WorkflowChoice::Huffman),
                WorkflowMode::Force(WorkflowChoice::Rle),
                WorkflowMode::Force(WorkflowChoice::RleVle),
            ] {
                let config = Config {
                    error_bound: ErrorBound::Relative(1e-3),
                    workflow: wf,
                    ..Config::default()
                };
                let eb = config.error_bound.absolute(&field.data);
                let compressor = Compressor::new(config);
                let archive = compressor
                    .compress(&field.data, field.dims)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", kind.name(), spec.name));
                let bytes = archive.to_bytes();
                let (recon, dims) = cuszp::decompress::<f32>(&bytes)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", kind.name(), spec.name));
                assert_eq!(dims, field.dims);
                verify_error_bound(&field.data, &recon, eb).unwrap_or_else(|(i, e)| {
                    panic!(
                        "{}/{} wf {wf:?}: bound violated at {i}: {e} > {eb}",
                        kind.name(),
                        spec.name
                    )
                });
            }
        }
    }
}

#[test]
fn all_engines_reconstruct_identically_from_the_same_archive() {
    let spec = dataset_fields(DatasetKind::Hurricane)[1];
    let field = generate(&spec, Scale::Tiny);
    let compressor = Compressor::new(Config {
        error_bound: ErrorBound::Relative(1e-4),
        ..Config::default()
    });
    let bytes = compressor
        .compress(&field.data, field.dims)
        .unwrap()
        .to_bytes();
    let (reference, _) =
        cuszp::decompress_with_engine::<f32>(&bytes, ReconstructEngine::CoarseSerial).unwrap();
    for engine in [
        ReconstructEngine::FinePartialSumNaive,
        ReconstructEngine::FinePartialSum,
    ] {
        let (out, _) = cuszp::decompress_with_engine::<f32>(&bytes, engine).unwrap();
        assert_eq!(out, reference, "engine {} diverged bitwise", engine.name());
    }
}

#[test]
fn workflow_choice_does_not_change_reconstruction() {
    // Coding is lossless: the decompressed field must be bit-identical
    // across workflows (only the archive size differs).
    let spec = dataset_fields(DatasetKind::CesmAtm)[3]; // FSDSC
    let field = generate(&spec, Scale::Tiny);
    let mut outputs = Vec::new();
    for wf in [
        WorkflowChoice::Huffman,
        WorkflowChoice::Rle,
        WorkflowChoice::RleVle,
    ] {
        let compressor = Compressor::new(Config {
            error_bound: ErrorBound::Relative(1e-2),
            workflow: WorkflowMode::Force(wf),
            ..Config::default()
        });
        let bytes = compressor
            .compress(&field.data, field.dims)
            .unwrap()
            .to_bytes();
        let (recon, _) = cuszp::decompress::<f32>(&bytes).unwrap();
        outputs.push(recon);
    }
    assert_eq!(outputs[0], outputs[1], "RLE path altered the data");
    assert_eq!(outputs[0], outputs[2], "RLE+VLE path altered the data");
}

#[test]
fn tighter_bounds_give_larger_archives_and_better_quality() {
    let spec = dataset_fields(DatasetKind::Nyx)[3]; // velocity_x
    let field = generate(&spec, Scale::Tiny);
    let mut last_size = 0usize;
    let mut last_err = f64::INFINITY;
    for eb in [1e-2, 1e-3, 1e-4] {
        let compressor = Compressor::new(Config {
            error_bound: ErrorBound::Relative(eb),
            ..Config::default()
        });
        let bytes = compressor
            .compress(&field.data, field.dims)
            .unwrap()
            .to_bytes();
        let (recon, _) = cuszp::decompress::<f32>(&bytes).unwrap();
        let stats = cuszp::metrics::ErrorStats::compute(&field.data, &recon);
        assert!(bytes.len() > last_size, "eb {eb}: archive must grow");
        assert!(stats.max_abs_err < last_err, "eb {eb}: error must shrink");
        last_size = bytes.len();
        last_err = stats.max_abs_err;
    }
}

#[test]
fn double_compression_is_idempotent_on_quality() {
    // Compressing an already-decompressed field at the same bound must
    // not degrade it further (the reconstruction is a fixed point of
    // prequantization at the same eb).
    let spec = dataset_fields(DatasetKind::Miranda)[0];
    let field = generate(&spec, Scale::Tiny);
    let compressor = Compressor::new(Config {
        error_bound: ErrorBound::Absolute(1e-3),
        ..Config::default()
    });
    let once = {
        let b = compressor
            .compress(&field.data, field.dims)
            .unwrap()
            .to_bytes();
        cuszp::decompress::<f32>(&b).unwrap().0
    };
    let twice = {
        let b = compressor.compress(&once, field.dims).unwrap().to_bytes();
        cuszp::decompress::<f32>(&b).unwrap().0
    };
    for (a, b) in once.iter().zip(&twice) {
        assert!(
            (a - b).abs() <= 1e-3 * 2.001,
            "second pass drifted: {a} vs {b}"
        );
    }
}
