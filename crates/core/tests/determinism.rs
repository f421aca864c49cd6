//! Determinism of the chunk-parallel engine: the serialized archive must
//! be **byte-identical** whether it was produced by 1, 2, or 8 workers,
//! and every one of those archives must decompress (at any pool width)
//! to a field that honors the error bound.

use cuszp_core::{
    decompress, ChunkedArchive, Compressor, Config, Dims, ErrorBound, ReconstructEngine,
};
use cuszp_parallel::WorkerPool;

const CHUNK_TARGET: usize = 40_000;

fn field(n: usize) -> Vec<f32> {
    // Smooth base + hash ripple + a flat stretch, so chunks exercise both
    // workflows and the outlier path.
    (0..n)
        .map(|i| {
            if i % 10 < 3 {
                2.5
            } else {
                let s = (i as f32 * 0.0017).sin() * 11.0;
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 48;
                s + (h & 0xFF) as f32 * 0.004
            }
        })
        .collect()
}

#[test]
fn archives_are_byte_identical_across_thread_counts() {
    let c = Compressor::new(Config {
        error_bound: ErrorBound::Relative(1e-3),
        ..Config::default()
    });
    for dims in [
        Dims::D1(300_000),
        Dims::D2 { ny: 600, nx: 500 },
        Dims::D3 {
            nz: 30,
            ny: 100,
            nx: 100,
        },
    ] {
        let data = field(dims.len());
        let reference = c
            .compress_chunked_with(&data, dims, CHUNK_TARGET, &WorkerPool::new(1))
            .unwrap()
            .to_bytes();
        let n_chunks = ChunkedArchive::from_bytes(&reference).unwrap().n_chunks();
        assert!(
            n_chunks > 1,
            "{dims:?} must actually split (got {n_chunks} chunk)"
        );

        for workers in [2usize, 8] {
            let bytes = c
                .compress_chunked_with(&data, dims, CHUNK_TARGET, &WorkerPool::new(workers))
                .unwrap()
                .to_bytes();
            assert_eq!(
                bytes, reference,
                "{dims:?}: archive bytes diverged between 1 and {workers} workers"
            );
        }

        // Every pool width decompresses the same bytes back inside the
        // bound (the bound is global, so one eb covers every chunk).
        let archive = ChunkedArchive::from_bytes(&reference).unwrap();
        let eb = archive.eb;
        for workers in [1usize, 2, 8] {
            let (recon, got_dims) = archive
                .decompress_with(ReconstructEngine::FinePartialSum, &WorkerPool::new(workers))
                .unwrap();
            assert_eq!(got_dims, dims);
            for (i, (o, r)) in data.iter().zip(&recon).enumerate() {
                let err = (o - r).abs() as f64;
                let slack = eb * (1.0 + 1e-6) + o.abs() as f64 * f32::EPSILON as f64;
                assert!(
                    err <= slack,
                    "{dims:?} @ {workers} workers, elem {i}: {err} > {eb}"
                );
            }
        }

        // The generic byte entry point takes the same container.
        let (recon, got_dims) = decompress::<f32>(&reference).unwrap();
        assert_eq!(got_dims, dims);
        assert_eq!(recon.len(), data.len());
    }
}

#[test]
fn global_worker_policy_does_not_change_bytes() {
    // The no-pool-argument entry point sizes its pool from the global
    // policy; the bytes must not depend on it either.
    let data = field(200_000);
    let dims = Dims::D1(200_000);
    let c = Compressor::new(Config {
        error_bound: ErrorBound::Absolute(2e-3),
        ..Config::default()
    });
    let mut outputs = Vec::new();
    for workers in [1usize, 2, 8] {
        cuszp_parallel::set_workers(workers);
        let pool = WorkerPool::with_default_workers();
        assert_eq!(pool.workers(), workers);
        let arc = c.compress_chunked_with(&data, dims, 25_000, &pool).unwrap();
        assert!(arc.n_chunks() > 1);
        outputs.push(arc.to_bytes());
    }
    cuszp_parallel::set_workers(0);
    assert_eq!(outputs[0], outputs[1], "1 vs 2 workers");
    assert_eq!(outputs[0], outputs[2], "1 vs 8 workers");
}
