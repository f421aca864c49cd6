//! One table-driven dtype test over every generic decode entry point.
//!
//! Each entry point runs on v1 and CSZ2 archives of an `f32` and an `f64`
//! field: decoding into the stored element type must round-trip within
//! the bound, and decoding into the other one must be a typed
//! `DtypeMismatch` naming both types. Entry points that take only one
//! container (the `ChunkedArchive` methods and the fetch hook) run on
//! that container alone.

use cuszp_core::{
    decompress, decompress_archive, decompress_range, decompress_range_resilient,
    decompress_range_with_fetch, decompress_resilient, decompress_with_engine, slice_field,
    Archive, ChunkedArchive, Compressor, Config, CuszpError, Dims, Dtype, ErrorBound, FillPolicy,
    PipelineEngine, RangeSpec, ReconstructEngine, Scalar,
};
use cuszp_parallel::WorkerPool;

/// 20 rows of 60: a 300-element chunk target splits it into 4 slabs.
const DIMS: Dims = Dims::D2 { ny: 20, nx: 60 };
const CHUNK_TARGET: usize = 300;

#[derive(Debug, Clone, Copy)]
enum Entry {
    Decompress,
    DecompressWithEngine,
    DecompressArchive,
    DecompressRange,
    DecompressRangeWithFetch,
    DecompressResilient,
    DecompressRangeResilient,
    ChunkedDecode,
    ChunkedDecodeRange,
}

const ENTRIES: [Entry; 9] = [
    Entry::Decompress,
    Entry::DecompressWithEngine,
    Entry::DecompressArchive,
    Entry::DecompressRange,
    Entry::DecompressRangeWithFetch,
    Entry::DecompressResilient,
    Entry::DecompressRangeResilient,
    Entry::ChunkedDecode,
    Entry::ChunkedDecodeRange,
];

/// One serialized archive under test.
struct Case {
    bytes: Vec<u8>,
    chunked: bool,
    dtype: Dtype,
    eb: f64,
}

/// A sub-volume straddling chunk boundaries.
fn spec() -> RangeSpec {
    RangeSpec::new(vec![3..17, 10..50])
}

fn field() -> Vec<f32> {
    (0..DIMS.len())
        .map(|i| (i as f32 * 0.013).sin() * 4.0 + (i as f32 * 0.0021).cos())
        .collect()
}

/// The same field as v1 and CSZ2 archives, stored as `T`.
fn cases_for<T: Scalar>(data: &[T]) -> [Case; 2] {
    let c = Compressor::new(Config {
        error_bound: ErrorBound::Relative(1e-3),
        ..Config::default()
    });
    let v1 = c.compress(data, DIMS).unwrap();
    let csz2 = c
        .compress_chunked_with(data, DIMS, CHUNK_TARGET, &WorkerPool::new(2))
        .unwrap();
    assert!(csz2.n_chunks() > 1, "fixture must split into chunks");
    [
        Case {
            bytes: v1.to_bytes(),
            chunked: false,
            dtype: v1.dtype,
            eb: v1.eb,
        },
        Case {
            bytes: csz2.to_bytes(),
            chunked: true,
            dtype: csz2.dtype,
            eb: csz2.eb,
        },
    ]
}

/// Decodes `case` through `entry` as `T`; `None` when the entry point
/// does not take this container.
fn run<T: Scalar>(entry: Entry, case: &Case) -> Option<Result<Vec<T>, CuszpError>> {
    let bytes = &case.bytes[..];
    let engine = ReconstructEngine::FinePartialSum;
    let pool = WorkerPool::new(2);
    let parsed = || ChunkedArchive::from_bytes(bytes).unwrap();
    let data = |r: Result<(Vec<T>, Dims), CuszpError>| r.map(|(d, _)| d);
    Some(match (entry, case.chunked) {
        (Entry::Decompress, _) => data(decompress(bytes)),
        (Entry::DecompressWithEngine, _) => data(decompress_with_engine(
            bytes,
            ReconstructEngine::CoarseSerial,
        )),
        (Entry::DecompressArchive, false) => data(decompress_archive(
            &Archive::from_bytes(bytes).unwrap(),
            engine,
        )),
        // A CSZ2 chunk is a v1 archive of the field's first slab.
        (Entry::DecompressArchive, true) => data(decompress_archive(&parsed().chunks[0], engine)),
        (Entry::DecompressRange, _) => data(decompress_range(bytes, &spec())),
        (Entry::DecompressResilient, _) => {
            decompress_resilient(bytes, FillPolicy::Nan).map(|rf| rf.data)
        }
        (Entry::DecompressRangeResilient, _) => {
            decompress_range_resilient(bytes, &spec(), FillPolicy::Nan).map(|rf| rf.data)
        }
        (_, false) => return None,
        (Entry::ChunkedDecode, true) => data(parsed().decode(engine, &pool)),
        (Entry::ChunkedDecodeRange, true) => data(parsed().decode_range(engine, &spec(), &pool)),
        (Entry::DecompressRangeWithFetch, true) => data(decompress_range_with_fetch(
            &parsed(),
            engine,
            &spec(),
            &mut PipelineEngine::new(),
            &mut |_| None,
            &mut |_, _| {},
        )),
    })
}

/// The original values `entry` must reproduce from `case`.
fn expected(entry: Entry, case: &Case, orig: &[f64]) -> Vec<f64> {
    match entry {
        Entry::DecompressRange
        | Entry::DecompressRangeWithFetch
        | Entry::DecompressRangeResilient
        | Entry::ChunkedDecodeRange => slice_field(orig, DIMS, &spec()).unwrap().0,
        Entry::DecompressArchive if case.chunked => {
            let first = ChunkedArchive::from_bytes(&case.bytes).unwrap().chunks[0]
                .dims
                .len();
            orig[..first].to_vec()
        }
        _ => orig.to_vec(),
    }
}

/// Decodes as the stored type `T` and checks the bound; returns whether
/// the entry point took the container at all.
fn round_trips<T: Scalar>(entry: Entry, case: &Case, orig: &[f64]) -> bool {
    let Some(got) = run::<T>(entry, case) else {
        return false;
    };
    let got = got.unwrap_or_else(|e| panic!("{entry:?} on {}: {e}", case.dtype.name()));
    let want = expected(entry, case, orig);
    assert_eq!(got.len(), want.len(), "{entry:?} on {}", case.dtype.name());
    let ulp = if T::BYTES == 4 {
        f64::from(f32::EPSILON)
    } else {
        f64::EPSILON
    };
    for (o, r) in want.iter().zip(&got) {
        let slack = case.eb * (1.0 + 1e-6) + o.abs() * ulp;
        assert!(
            (o - r.to_f64()).abs() <= slack,
            "{entry:?} on {}: {o} vs {r:?}",
            case.dtype.name()
        );
    }
    true
}

/// Decodes as the other type `T` and expects the typed mismatch.
fn refuses<T: Scalar>(entry: Entry, case: &Case) {
    let Some(got) = run::<T>(entry, case) else {
        return;
    };
    match got {
        Err(CuszpError::DtypeMismatch { stored, requested }) => {
            assert_eq!(stored, case.dtype.name(), "{entry:?}");
            assert_ne!(requested, stored, "{entry:?}");
        }
        other => panic!(
            "{entry:?} on {} decoded into the wrong type: {:?}",
            case.dtype.name(),
            other.map(|v| v.len())
        ),
    }
}

#[test]
fn every_decode_entry_point_round_trips_its_dtype_and_refuses_the_other() {
    let f32_field = field();
    let orig: Vec<f64> = f32_field.iter().map(|&x| f64::from(x)).collect();
    let mut cases = Vec::new();
    cases.extend(cases_for(&f32_field));
    cases.extend(cases_for(&orig));
    let mut ran = 0;
    for case in &cases {
        assert_eq!(Dtype::of_archive(&case.bytes), Some(case.dtype));
        for entry in ENTRIES {
            let took = match case.dtype {
                Dtype::F32 => {
                    refuses::<f64>(entry, case);
                    round_trips::<f32>(entry, case, &orig)
                }
                Dtype::F64 => {
                    refuses::<f32>(entry, case);
                    round_trips::<f64>(entry, case, &orig)
                }
            };
            ran += usize::from(took);
        }
    }
    // Six entry points take v1 bytes, all nine take CSZ2; two dtypes.
    assert_eq!(ran, 2 * (6 + 9));
}

#[test]
fn stored_dtype_is_unknown_for_unusable_headers() {
    assert_eq!(Dtype::of_archive(b""), None);
    assert_eq!(Dtype::of_archive(b"definitely not an archive"), None);
}
