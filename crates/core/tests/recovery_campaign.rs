//! Seeded corruption campaign against the recovery subsystem.
//!
//! `cuszp-faultsim` generates a deterministic stream of corrupted
//! containers (truncations, bit flips, length inflation, chunk surgery);
//! every case must uphold the recovery contract: no panic, no
//! over-allocation, undamaged chunks recovered bit-exactly, damaged
//! slabs filled per policy and reported. Replays exactly from
//! `(base, CAMPAIGN_SEED, case id)`.

use cuszp_core::{
    decompress_resilient, scan, ChunkStatus, Compressor, Config, Dims, ErrorBound, FillPolicy,
};
use cuszp_parallel::WorkerPool;
use std::ops::Range;

const CAMPAIGN_SEED: u64 = 0xC52A_2021_FA17_0001;
const CAMPAIGN_CASES: usize = 256;

/// A 3-chunk container plus its pristine reconstruction and the slab
/// element ranges of each chunk.
fn campaign_base() -> (Vec<u8>, Vec<f32>, Vec<Range<usize>>) {
    let n = 6000;
    let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.013).sin() * 4.0).collect();
    let c = Compressor::new(Config {
        error_bound: ErrorBound::Absolute(1e-3),
        ..Config::default()
    });
    let bytes = c
        .compress_chunked_with(
            &data,
            Dims::D1(n),
            2048,
            &WorkerPool::with_default_workers(),
        )
        .unwrap()
        .to_bytes();
    let clean = decompress_resilient::<f32>(&bytes, FillPolicy::Nan).unwrap();
    assert!(clean.is_clean(), "pristine container must scan clean");
    assert!(clean.reports.len() >= 3, "campaign needs several chunks");
    let slabs: Vec<Range<usize>> = clean.reports.iter().map(|r| r.elem_range.clone()).collect();
    (bytes, clean.data, slabs)
}

/// Chunk-surgery cases rewrite the framing self-consistently (reorder /
/// duplicate / delete), so a chunk can land in a *different* slab of the
/// same shape with its checksum intact; `campaign` schedules them at
/// this position in the mix.
fn is_chunk_surgery(id: usize) -> bool {
    id % 8 == 7
}

fn bit_exact(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn seeded_campaign_holds_the_recovery_contract() {
    let (base, reference, slabs) = campaign_base();
    let cases = cuszp_faultsim::campaign(&base, CAMPAIGN_SEED, CAMPAIGN_CASES);
    assert!(cases.len() >= 200, "acceptance floor: >= 200 mutations");

    let mut recovered_cases = 0usize;
    let mut damaged_chunks = 0usize;
    for case in &cases {
        let ctx = |what: &str| format!("case {} ({}): {what}", case.id, case.description);

        // `scan` may reject an unusable container header but must never
        // panic; when it reports, the report list is bounded by what the
        // input pays for.
        if let Ok(report) = scan(&case.bytes) {
            assert!(
                report.reports.len() <= slabs.len() + case.bytes.len() / 8 + 1,
                "{}",
                ctx("scan report list exceeds input-proportional bound")
            );
        }

        let rf = match decompress_resilient::<f32>(&case.bytes, FillPolicy::Nan) {
            Err(_) => continue, // hard failure is a valid outcome; silence is not
            Ok(rf) => rf,
        };
        recovered_cases += 1;

        // A recovered field always has the pristine shape: recovery only
        // proceeds when at least one chunk validates against the plan,
        // which pins the header dims to the original.
        assert_eq!(rf.data.len(), reference.len(), "{}", ctx("output size"));
        assert_eq!(
            rf.data.len(),
            rf.dims.len(),
            "{}",
            ctx("dims/data mismatch")
        );

        for rep in &rf.reports {
            let got = &rf.data[rep.elem_range.clone()];
            match &rep.status {
                ChunkStatus::Ok if is_chunk_surgery(case.id) => {
                    // Surgery can relocate a chunk, but an Ok slab must
                    // still hold genuine chunk data — bit-identical to
                    // *some* pristine slab — never garbage.
                    assert!(
                        slabs.iter().any(|s| bit_exact(&reference[s.clone()], got)),
                        "{}",
                        ctx("Ok slab matches no pristine chunk")
                    );
                }
                ChunkStatus::Ok => {
                    assert!(
                        bit_exact(&reference[rep.elem_range.clone()], got),
                        "{}",
                        ctx("undamaged chunk not bit-exact")
                    );
                }
                _ => {
                    damaged_chunks += 1;
                    assert!(
                        got.iter().all(|v| v.is_nan()),
                        "{}",
                        ctx("damaged slab not filled per policy")
                    );
                }
            }
        }
    }

    // The campaign must actually exercise partial recovery, not only
    // hard failures or only clean survivals.
    assert!(
        recovered_cases > 0,
        "no case recovered — campaign mix is degenerate"
    );
    assert!(
        damaged_chunks > 0,
        "no damaged chunk reported — campaign mix is degenerate"
    );
}

#[test]
fn campaign_zero_fill_policy_is_honored() {
    let (base, _, _) = campaign_base();
    // A smaller sweep re-checking the fill policy on the same seed.
    for case in cuszp_faultsim::campaign(&base, CAMPAIGN_SEED, 64) {
        if let Ok(rf) = decompress_resilient::<f32>(&case.bytes, FillPolicy::Zero) {
            for rep in rf.reports.iter().filter(|r| !r.status.is_ok()) {
                assert!(
                    rf.data[rep.elem_range.clone()].iter().all(|&v| v == 0.0),
                    "case {} ({}): damaged slab not zero-filled",
                    case.id,
                    case.description
                );
            }
        }
    }
}

/// Plan-descriptor corruption: every case flips exactly one byte of one
/// chunk's dtype/predictor/lossless/reserved descriptor to an invalid
/// value. The parser must surface a **typed** malformed fault — never a
/// panic — and resilient decompression must keep every other chunk.
#[test]
fn plan_descriptor_campaign_yields_typed_parse_faults() {
    let (base, reference, slabs) = campaign_base();
    let cases = cuszp_faultsim::plan_descriptor_campaign(&base, CAMPAIGN_SEED, 64);
    assert!(cases.len() >= 64, "descriptor campaign must generate cases");
    for case in &cases {
        // Exactly one descriptor byte differs from the clean container.
        let diffs: Vec<usize> = base
            .iter()
            .zip(&case.bytes)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diffs.len(), 1, "case {}: {}", case.id, case.description);

        // Scan must classify the hit chunk as malformed with a typed
        // parse fault (never a checksum mismatch: the descriptor lives
        // in the header, outside the checksummed payload).
        let report = scan(&case.bytes).expect("container header is untouched");
        let malformed: Vec<usize> = report
            .reports
            .iter()
            .filter(|r| matches!(r.status, ChunkStatus::Malformed(_)))
            .map(|r| r.index)
            .collect();
        assert_eq!(
            malformed.len(),
            1,
            "case {} ({}): exactly one chunk must be malformed",
            case.id,
            case.description
        );

        // Resilient decompression fills only the damaged slab; every
        // other chunk reconstructs bit-exactly.
        let rf = decompress_resilient::<f32>(&case.bytes, FillPolicy::Nan)
            .expect("other chunks stay recoverable");
        for (i, slab) in slabs.iter().enumerate() {
            if malformed.contains(&i) {
                assert!(
                    rf.data[slab.clone()].iter().all(|v| v.is_nan()),
                    "case {}: damaged slab not filled",
                    case.id
                );
            } else {
                assert!(
                    bit_exact(&rf.data[slab.clone()], &reference[slab.clone()]),
                    "case {}: undamaged slab must be bit-exact",
                    case.id
                );
            }
        }
    }
}

#[test]
fn campaign_replays_are_identical() {
    let (base, _, _) = campaign_base();
    let a = cuszp_faultsim::campaign(&base, CAMPAIGN_SEED, 32);
    let b = cuszp_faultsim::campaign(&base, CAMPAIGN_SEED, 32);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.bytes, y.bytes, "campaign case {} not reproducible", x.id);
    }
}
