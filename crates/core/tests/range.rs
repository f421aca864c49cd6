//! Range-read battery: `decompress_range` must return exactly the bytes
//! a full decompress would have produced for the same slice — bit-equal,
//! at any worker count, for any in-bounds range over any rank — and must
//! reject bad specs with typed errors instead of panicking.

use cuszp_core::{
    decompress_range, decompress_range_resilient, decompress_range_with_fetch, slice_field,
    ChunkStatus, Compressor, Config, CuszpError, Dims, ErrorBound, FillPolicy, PipelineEngine,
    RangeSpec, ReconstructEngine,
};
use cuszp_parallel::WorkerPool;
use proptest::prelude::*;
use std::collections::HashMap;

/// Small enough that the test shapes split into several chunks.
const CHUNK_TARGET: usize = 1_000;

fn field_f32(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let s = (i as f32 * 0.0031).sin() * 7.0;
            let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 50;
            s + h as f32 * 0.01
        })
        .collect()
}

fn field_f64(n: usize) -> Vec<f64> {
    field_f32(n).into_iter().map(f64::from).collect()
}

fn compressor() -> Compressor {
    Compressor::new(Config {
        error_bound: ErrorBound::Relative(1e-3),
        ..Config::default()
    })
}

/// The shapes the property sweeps: every rank, chunk counts > 1.
fn shapes() -> Vec<Dims> {
    vec![
        Dims::D1(6_000),
        Dims::D2 { ny: 60, nx: 100 },
        Dims::D3 {
            nz: 8,
            ny: 25,
            nx: 30,
        },
    ]
}

/// Derives a non-empty in-bounds interval over `extent` from one seed.
fn axis_range(seed: u64, extent: usize) -> std::ops::Range<usize> {
    let start = (seed % extent as u64) as usize;
    let len = 1 + ((seed >> 32) % (extent - start) as u64) as usize;
    start..start + len
}

/// A random in-bounds spec for `dims` (rank order, slowest first).
fn spec_for(dims: Dims, seeds: &[u64]) -> RangeSpec {
    let rank = dims.rank();
    let extents = &dims.extents()[3 - rank..];
    RangeSpec::new(
        extents
            .iter()
            .zip(seeds)
            .map(|(&e, &s)| axis_range(s, e))
            .collect(),
    )
}

fn bits_f32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits_f64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The acceptance criterion: arbitrary in-bounds ranges bit-equal the
    // same slice of a full decompress, at 1/2/8 workers, for f32.
    #[test]
    fn range_bit_equals_full_slice_f32(
        shape_idx in 0usize..3,
        seeds in prop::collection::vec(any::<u64>(), 3),
        workers in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let dims = shapes()[shape_idx];
        let spec = spec_for(dims, &seeds);
        let pool = WorkerPool::new(workers);
        let arc = compressor()
            .compress_chunked_with(&field_f32(dims.len()), dims, CHUNK_TARGET, &pool)
            .unwrap();
        let (full, _) = arc
            .decompress_with(ReconstructEngine::FinePartialSum, &pool)
            .unwrap();
        let (want, want_dims) = slice_field(&full, dims, &spec).unwrap();
        let (got, got_dims) = arc
            .decode_range(ReconstructEngine::FinePartialSum, &spec, &pool)
            .unwrap();
        prop_assert_eq!(got_dims, want_dims);
        prop_assert_eq!(
            bits_f32(&got), bits_f32(&want),
            "range {} over {:?} at {} workers diverged", spec, dims, workers
        );
    }

    // Same property for f64 archives.
    #[test]
    fn range_bit_equals_full_slice_f64(
        shape_idx in 0usize..3,
        seeds in prop::collection::vec(any::<u64>(), 3),
        workers in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let dims = shapes()[shape_idx];
        let spec = spec_for(dims, &seeds);
        let pool = WorkerPool::new(workers);
        let arc = compressor()
            .compress_chunked_with(&field_f64(dims.len()), dims, CHUNK_TARGET, &pool)
            .unwrap();
        let (full, _) = arc
            .decode(ReconstructEngine::FinePartialSum, &pool)
            .unwrap();
        let (want, want_dims) = slice_field(&full, dims, &spec).unwrap();
        let (got, got_dims) = arc
            .decode_range(ReconstructEngine::FinePartialSum, &spec, &pool)
            .unwrap();
        prop_assert_eq!(got_dims, want_dims);
        prop_assert_eq!(
            bits_f64(&got), bits_f64(&want),
            "range {} over {:?} at {} workers diverged", spec, dims, workers
        );
    }

    // The serialized-bytes entry point (what the CLI and server use)
    // agrees with the in-memory method, and the resilient variant over a
    // clean archive returns the same bytes with all-Ok reports confined
    // to the intersecting chunks.
    #[test]
    fn byte_level_and_resilient_paths_agree(
        shape_idx in 0usize..3,
        seeds in prop::collection::vec(any::<u64>(), 3),
    ) {
        let dims = shapes()[shape_idx];
        let spec = spec_for(dims, &seeds);
        let pool = WorkerPool::new(2);
        let arc = compressor()
            .compress_chunked_with(&field_f32(dims.len()), dims, CHUNK_TARGET, &pool)
            .unwrap();
        let bytes = arc.to_bytes();
        let (want, want_dims) = arc
            .decode_range(ReconstructEngine::FinePartialSum, &spec, &pool)
            .unwrap();
        let (got, got_dims) = decompress_range(&bytes, &spec).unwrap();
        prop_assert_eq!(got_dims, want_dims);
        prop_assert_eq!(bits_f32(&got), bits_f32(&want));
        let rf = decompress_range_resilient(&bytes, &spec, FillPolicy::Nan).unwrap();
        prop_assert_eq!(rf.dims, want_dims);
        prop_assert_eq!(bits_f32(&rf.data), bits_f32(&want));
        prop_assert!(!rf.reports.is_empty());
        prop_assert!(rf.reports.iter().all(|r| r.status == ChunkStatus::Ok));
        prop_assert!(rf.reports.len() <= arc.n_chunks());
    }
}

#[test]
fn edge_ranges_single_element_full_field_and_chunk_straddling() {
    let dims = Dims::D2 { ny: 60, nx: 100 };
    let pool = WorkerPool::new(2);
    let data = field_f32(dims.len());
    let arc = compressor()
        .compress_chunked_with(&data, dims, CHUNK_TARGET, &pool)
        .unwrap();
    assert!(arc.n_chunks() > 2, "fixture must split into several chunks");
    let (full, _) = arc
        .decompress_with(ReconstructEngine::FinePartialSum, &pool)
        .unwrap();
    // CHUNK_TARGET=1000 over nx=100 gives 10-row slabs: row ranges below
    // straddle the first chunk boundary.
    for spec in [
        RangeSpec::new(vec![17..18, 42..43]),  // single element
        RangeSpec::new(vec![0..60, 0..100]),   // full field
        RangeSpec::new(vec![9..11, 0..100]),   // straddles chunks 0|1
        RangeSpec::new(vec![8..31, 97..100]),  // spans three chunks
        RangeSpec::new(vec![0..1, 0..1]),      // first element
        RangeSpec::new(vec![59..60, 99..100]), // last element
    ] {
        let (want, want_dims) = slice_field(&full, dims, &spec).unwrap();
        let (got, got_dims) = arc
            .decode_range(ReconstructEngine::FinePartialSum, &spec, &pool)
            .unwrap();
        assert_eq!(got_dims, want_dims, "{spec}");
        assert_eq!(bits_f32(&got), bits_f32(&want), "{spec}");
    }
}

#[test]
fn bad_specs_are_typed_errors_not_panics() {
    let dims = Dims::D2 { ny: 60, nx: 100 };
    let pool = WorkerPool::new(1);
    let arc = compressor()
        .compress_chunked_with(&field_f32(dims.len()), dims, CHUNK_TARGET, &pool)
        .unwrap();
    let bytes = arc.to_bytes();
    let bad = [
        #[allow(clippy::single_range_in_vec_init)]
        RangeSpec::new(vec![0..60]), // wrong rank (too few)
        RangeSpec::new(vec![0..60, 0..100, 0..1]), // wrong rank (too many)
        RangeSpec::new(vec![10..10, 0..100]),      // empty axis
        #[allow(clippy::reversed_empty_ranges)]
        RangeSpec::new(vec![20..10, 0..100]), // inverted axis
        RangeSpec::new(vec![0..61, 0..100]),       // slow end out of bounds
        RangeSpec::new(vec![0..60, 0..101]),       // fast end out of bounds
        RangeSpec::new(vec![0..60, 100..101]),     // start at extent
    ];
    for spec in &bad {
        assert!(
            matches!(
                arc.decode_range::<f32>(ReconstructEngine::FinePartialSum, spec, &pool),
                Err(CuszpError::InvalidRange { .. })
            ),
            "method path accepted {spec}"
        );
        assert!(
            matches!(
                decompress_range::<f32>(&bytes, spec),
                Err(CuszpError::InvalidRange { .. })
            ),
            "bytes path accepted {spec}"
        );
        assert!(
            matches!(
                decompress_range_resilient::<f32>(&bytes, spec, FillPolicy::Nan),
                Err(CuszpError::InvalidRange { .. })
            ),
            "resilient path accepted {spec}"
        );
    }
}

/// Satellite: degenerate chunk-geometry corners through the range path —
/// any dim == 1, single-chunk fields, and fields smaller than one slab.
#[test]
fn degenerate_dims_round_trip_through_the_range_path() {
    let pool = WorkerPool::new(2);
    let cases: Vec<(Dims, usize)> = vec![
        (Dims::D1(1), CHUNK_TARGET),                 // single element field
        (Dims::D1(7), CHUNK_TARGET),                 // smaller than one slab
        (Dims::D2 { ny: 1, nx: 500 }, CHUNK_TARGET), // slow dim == 1
        (Dims::D2 { ny: 500, nx: 1 }, 100),          // fast dim == 1
        (
            Dims::D3 {
                nz: 1,
                ny: 20,
                nx: 30,
            },
            100,
        ), // single slab in 3-D
        (
            Dims::D3 {
                nz: 12,
                ny: 1,
                nx: 40,
            },
            100,
        ), // middle dim == 1
        (
            Dims::D3 {
                nz: 12,
                ny: 40,
                nx: 1,
            },
            100,
        ), // fast dim == 1
        (Dims::D2 { ny: 60, nx: 100 }, usize::MAX),  // single-chunk field
    ];
    for (dims, target) in cases {
        let data = field_f32(dims.len());
        let arc = compressor()
            .compress_chunked_with(&data, dims, target, &pool)
            .unwrap();
        let (full, _) = arc
            .decompress_with(ReconstructEngine::FinePartialSum, &pool)
            .unwrap();
        let rank = dims.rank();
        let extents = &dims.extents()[3 - rank..];
        // Full-field range plus a mid sub-range on every axis that has
        // room for one.
        let full_spec = RangeSpec::new(extents.iter().map(|&e| 0..e).collect());
        let mid_spec = RangeSpec::new(
            extents
                .iter()
                .map(|&e| if e > 2 { 1..e - 1 } else { 0..e })
                .collect(),
        );
        for spec in [full_spec, mid_spec] {
            let (want, want_dims) = slice_field(&full, dims, &spec).unwrap();
            let (got, got_dims) = arc
                .decode_range(ReconstructEngine::FinePartialSum, &spec, &pool)
                .unwrap();
            assert_eq!(got_dims, want_dims, "{dims:?} target {target} {spec}");
            assert_eq!(
                bits_f32(&got),
                bits_f32(&want),
                "{dims:?} target {target} {spec}"
            );
        }
    }
}

#[test]
fn v1_archives_serve_ranges_via_full_decode() {
    let dims = Dims::D3 {
        nz: 6,
        ny: 10,
        nx: 20,
    };
    let data = field_f32(dims.len());
    let archive = compressor().compress(&data, dims).unwrap();
    let bytes = archive.to_bytes();
    let (full, _) = cuszp_core::decompress::<f32>(&bytes).unwrap();
    let spec = RangeSpec::new(vec![1..5, 2..9, 5..15]);
    let (want, want_dims) = slice_field(&full, dims, &spec).unwrap();
    let (got, got_dims) = decompress_range(&bytes, &spec).unwrap();
    assert_eq!(got_dims, want_dims);
    assert_eq!(bits_f32(&got), bits_f32(&want));
    // f64 flavor too.
    let arc64 = compressor().compress(&field_f64(dims.len()), dims).unwrap();
    let bytes64 = arc64.to_bytes();
    let (full64, _) = cuszp_core::decompress::<f64>(&bytes64).unwrap();
    let (want64, _) = slice_field(&full64, dims, &spec).unwrap();
    let (got64, _) = decompress_range(&bytes64, &spec).unwrap();
    assert_eq!(bits_f64(&got64), bits_f64(&want64));
}

/// The serving-tier hook: a fetch/store pair acting as a slab cache must
/// see one store per intersecting chunk on a cold read, zero decodes on
/// a warm read, and identical bytes both times.
#[test]
fn fetch_hook_skips_decoding_on_warm_reads() {
    let dims = Dims::D2 { ny: 60, nx: 100 };
    let pool = WorkerPool::new(1);
    let arc = compressor()
        .compress_chunked_with(&field_f32(dims.len()), dims, CHUNK_TARGET, &pool)
        .unwrap();
    let spec = RangeSpec::new(vec![5..25, 10..90]);
    let mut cache: HashMap<usize, Vec<f32>> = HashMap::new();
    let mut eng = PipelineEngine::new();

    let mut stores = 0;
    let run =
        |cache: &mut HashMap<usize, Vec<f32>>, stores: &mut usize, eng: &mut PipelineEngine| {
            let mut fetch = |i: usize| cache.get(&i).cloned();
            let mut local: Vec<(usize, Vec<f32>)> = Vec::new();
            let mut store = |i: usize, slab: &[f32]| local.push((i, slab.to_vec()));
            let out = decompress_range_with_fetch(
                &arc,
                ReconstructEngine::FinePartialSum,
                &spec,
                eng,
                &mut fetch,
                &mut store,
            )
            .unwrap();
            *stores += local.len();
            for (i, slab) in local {
                cache.insert(i, slab);
            }
            out
        };

    let (cold, cold_dims) = run(&mut cache, &mut stores, &mut eng);
    let cold_stores = stores;
    assert!(cold_stores >= 2, "range must span several chunks");
    let (warm, warm_dims) = run(&mut cache, &mut stores, &mut eng);
    assert_eq!(stores, cold_stores, "warm read must not decode anything");
    assert_eq!(cold_dims, warm_dims);
    assert_eq!(bits_f32(&cold), bits_f32(&warm));
    // And both agree with the uncached path.
    let (want, _) = arc
        .decode_range(ReconstructEngine::FinePartialSum, &spec, &pool)
        .unwrap();
    assert_eq!(bits_f32(&cold), bits_f32(&want));
    // A cached slab of the wrong length is ignored, not trusted.
    let poisoned_key = *cache.keys().next().unwrap();
    cache.insert(poisoned_key, vec![0.0; 3]);
    let (healed, _) = run(&mut cache, &mut stores, &mut eng);
    assert_eq!(bits_f32(&healed), bits_f32(&want));
    assert_eq!(stores, cold_stores + 1, "bad entry must be re-decoded");
}
