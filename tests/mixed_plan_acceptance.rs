//! Acceptance test for per-chunk codec plans: one CSZ2 archive whose
//! chunks auto-select **different** plans on a mixed-character field,
//! decoding within bound and serializing bit-identically at any worker
//! count.
//!
//! The field concatenates two datagen regimes along the slow axis —
//! Miranda-`pressure`-smooth rows first, HACC-`vx`-rough rows after —
//! so the leading chunks reward interpolation and the trailing chunks
//! keep Lorenzo.

use cuszp::datagen::{dataset_fields, generate, DatasetKind, Scale};
use cuszp::metrics::verify_error_bound;
use cuszp::parallel::WorkerPool;
use cuszp::{Compressor, Config, Dims, ErrorBound, LosslessMode, PredictorMode, WorkflowMode};
use std::collections::BTreeSet;

/// Builds the mixed field: smooth rows then rough rows, one D2 field.
fn mixed_field() -> (Vec<f32>, Dims) {
    let smooth = {
        let spec = dataset_fields(DatasetKind::Miranda)
            .into_iter()
            .find(|s| s.name == "pressure")
            .unwrap();
        generate(&spec, Scale::Tiny).data
    };
    let rough = {
        let spec = dataset_fields(DatasetKind::Hacc)
            .into_iter()
            .find(|s| s.name == "vx")
            .unwrap();
        generate(&spec, Scale::Tiny).data
    };
    let nx = 500usize;
    let rows_each = smooth.len().min(rough.len()) / nx;
    let mut data = Vec::with_capacity(2 * rows_each * nx);
    data.extend_from_slice(&smooth[..rows_each * nx]);
    data.extend_from_slice(&rough[..rows_each * nx]);
    (
        data,
        Dims::D2 {
            ny: 2 * rows_each,
            nx,
        },
    )
}

fn auto_config() -> Config {
    Config {
        error_bound: ErrorBound::Relative(1e-3),
        predictor: PredictorMode::Auto,
        workflow: WorkflowMode::Auto,
        lossless: LosslessMode::Auto,
        ..Config::default()
    }
}

#[test]
fn one_archive_mixes_plans_and_stays_deterministic() {
    let (data, dims) = mixed_field();
    let config = auto_config();
    let eb = config.error_bound.absolute(&data);
    let chunk_target = dims.len() / 6;

    let compress_at = |workers: usize| {
        Compressor::new(config)
            .compress_chunked_with(&data, dims, chunk_target, &WorkerPool::new(workers))
            .unwrap()
    };

    let arc = compress_at(1);
    assert!(arc.n_chunks() >= 4, "need several chunks to mix plans");

    // The archive must mix at least two distinct auto-selected plans.
    let labels: BTreeSet<String> = arc.chunks.iter().map(|c| c.plan().label()).collect();
    assert!(
        labels.len() >= 2,
        "expected a plan mix, got only {labels:?}"
    );

    // Round trip within bound.
    let bytes = arc.to_bytes();
    let (recon, rdims) = cuszp::decompress::<f32>(&bytes).unwrap();
    assert_eq!(rdims, dims);
    verify_error_bound(&data, &recon, eb)
        .unwrap_or_else(|(i, e)| panic!("bound violated at {i}: {e}"));

    // Bit-deterministic at any worker count: plan probes are pure
    // functions of each chunk's bytes, so the worker schedule is
    // invisible in the output.
    for workers in [2usize, 8] {
        assert_eq!(
            compress_at(workers).to_bytes(),
            bytes,
            "archive bytes differ at {workers} workers"
        );
    }
}
