//! Failure injection for CSZ2 chunked containers, mirroring
//! `failure_injection.rs` for the v1 format: corrupted, truncated, and
//! tampered containers must surface structured errors on the strict
//! path — never panic, never over-allocate, never silently return wrong
//! data — while the resilient path recovers what it can.

use cuszp::{
    decompress_resilient, scan, ChunkStatus, Compressor, Config, CuszpError, Dims, ErrorBound,
    FillPolicy,
};
use cuszp_faultsim as faultsim;

/// A 3-chunk container over 6100 elements: the balanced plan yields
/// slabs of 2034, 2033, and 2033 elements, so the first slab's shape
/// differs from the last's and an end-swap is geometrically detectable.
/// (Transposing *equal*-shape chunks is outside the integrity contract:
/// chunks carry no positional binding — see DESIGN.md.)
fn sample_container() -> Vec<u8> {
    let data: Vec<f32> = (0..6100).map(|i| (i as f32 * 0.007).cos() * 3.0).collect();
    let c = Compressor::new(Config {
        error_bound: ErrorBound::Absolute(1e-3),
        ..Config::default()
    });
    let arc = c.compress_chunked_with(
        &data,
        Dims::D1(6100),
        2048,
        &cuszp::parallel::WorkerPool::with_default_workers(),
    );
    arc.unwrap().to_bytes()
}

#[test]
fn truncation_at_every_section_boundary_errors_cleanly() {
    let bytes = sample_container();
    let boundaries = faultsim::section_boundaries(&bytes);
    assert!(
        boundaries.len() > 4,
        "expected header/table/chunk boundaries"
    );
    for &b in &boundaries {
        for cut in [b.saturating_sub(1), b, b + 1] {
            if cut >= bytes.len() {
                continue; // not a truncation
            }
            let r = cuszp::decompress::<f32>(&bytes[..cut]);
            assert!(r.is_err(), "truncated at {cut} (boundary {b}) must fail");
        }
    }
}

#[test]
fn truncation_errors_carry_structured_context() {
    let bytes = sample_container();
    // Cut inside the length table: the fault must name the section.
    let cut = faultsim::CSZ2_HEADER_BYTES + 3;
    match cuszp::decompress::<f32>(&bytes[..cut]) {
        Err(CuszpError::MalformedArchive(fault)) => {
            assert_eq!(fault.section, cuszp::ArchiveSection::LengthTable);
            assert!(fault.offset <= cut, "offset {} beyond input", fault.offset);
        }
        other => panic!("expected MalformedArchive with context, got {other:?}"),
    }
}

#[test]
fn length_table_bit_flips_are_detected() {
    let bytes = sample_container();
    let layout = faultsim::parse_csz2(&bytes).unwrap();
    for entry in 0..layout.n_chunks {
        for bit in [0u8, 3, 7] {
            let corrupt = faultsim::flip_bit(&bytes, layout.table.start + entry * 8, bit);
            assert!(
                cuszp::decompress::<f32>(&corrupt).is_err(),
                "flipped bit {bit} of length-table entry {entry} accepted"
            );
            // The resilient path still recovers the chunks the flip did
            // not unframe (at minimum it must not panic and must report
            // the damage if it returns).
            if let Ok(rf) = decompress_resilient::<f32>(&corrupt, FillPolicy::Nan) {
                assert!(
                    rf.n_damaged() > 0,
                    "entry {entry} bit {bit}: damage unreported"
                );
            }
        }
    }
}

#[test]
fn inflated_chunk_count_fails_without_overallocation() {
    let bytes = sample_container();
    let count_off = faultsim::CSZ2_HEADER_BYTES - 4;
    for value in [u32::MAX, 1 << 30, 1_000_000] {
        let corrupt = faultsim::inflate_u32(&bytes, count_off, value);
        // The declared table alone would be gigabytes; both paths must
        // bounds-check before allocating.
        assert!(
            cuszp::decompress::<f32>(&corrupt).is_err(),
            "count {value} accepted"
        );
        if let Ok(report) = scan(&corrupt) {
            assert_eq!(report.declared_chunks, value as usize);
            assert!(
                report.reports.len() <= corrupt.len() / 8 + 8,
                "count {value}: report list not bounded by input size"
            );
        }
    }
}

#[test]
fn inflated_length_entry_fails_without_overallocation() {
    let bytes = sample_container();
    let layout = faultsim::parse_csz2(&bytes).unwrap();
    for value in [u64::MAX, u64::MAX / 2, (bytes.len() as u64) * 1000] {
        let corrupt = faultsim::inflate_u64(&bytes, layout.table.start, value);
        assert!(
            cuszp::decompress::<f32>(&corrupt).is_err(),
            "length {value:#x} accepted"
        );
        // Chunks after the inflated entry are unframed (no resync), so
        // the resilient path reports them rather than guessing.
        if let Ok(rf) = decompress_resilient::<f32>(&corrupt, FillPolicy::Nan) {
            assert!(rf.n_damaged() > 0, "length {value:#x}: damage unreported");
        }
    }
}

#[test]
fn chunk_surgery_is_rejected_by_the_strict_path() {
    let bytes = sample_container();
    let layout = faultsim::parse_csz2(&bytes).unwrap();
    let last = layout.n_chunks - 1;

    // Swap first and last chunks: slab shapes differ (2034 vs 2033), so
    // the geometry cross-check must catch the transposition.
    let swapped = faultsim::reorder_chunks(&bytes, 0, last).unwrap();
    assert!(
        cuszp::decompress::<f32>(&swapped).is_err(),
        "chunk reorder accepted"
    );

    // One chunk too many / too few: the chunk count disagrees with the
    // plan computed from the header shape.
    let duped = faultsim::duplicate_chunk(&bytes, 0).unwrap();
    assert!(
        cuszp::decompress::<f32>(&duped).is_err(),
        "duplicated chunk accepted"
    );
    let deleted = faultsim::delete_chunk(&bytes, last).unwrap();
    assert!(
        cuszp::decompress::<f32>(&deleted).is_err(),
        "deleted chunk accepted"
    );

    // The resilient path names the out-of-plan chunk on duplication.
    let rf = decompress_resilient::<f32>(&duped, FillPolicy::Nan);
    if let Ok(rf) = rf {
        assert!(
            rf.reports
                .iter()
                .any(|r| matches!(r.status, ChunkStatus::Malformed(_))),
            "duplicate chunk not reported as malformed"
        );
    }
}

#[test]
fn chunk_body_bit_flips_are_detected_per_chunk() {
    let bytes = sample_container();
    let layout = faultsim::parse_csz2(&bytes).unwrap();
    for (i, chunk) in layout.chunks.iter().enumerate() {
        let mid = chunk.start + chunk.len() / 2;
        let corrupt = faultsim::flip_bit(&bytes, mid, 2);
        assert!(
            cuszp::decompress::<f32>(&corrupt).is_err(),
            "payload flip in chunk {i} accepted by strict path"
        );
        // The resilient path pinpoints exactly this chunk and recovers
        // the others.
        let rf = decompress_resilient::<f32>(&corrupt, FillPolicy::Nan).unwrap();
        assert_eq!(rf.n_damaged(), 1, "chunk {i}: wrong damage count");
        let damaged = rf.reports.iter().find(|r| !r.status.is_ok()).unwrap();
        assert_eq!(damaged.index, i, "damage attributed to the wrong chunk");
        let range = damaged.byte_range.clone().unwrap();
        assert!(
            range.contains(&mid),
            "fault range {range:?} misses flip at {mid}"
        );
    }
}

#[test]
fn chunked_magic_with_garbage_tail_errors() {
    let mut garbage = faultsim::CSZ2_MAGIC.to_le_bytes().to_vec();
    garbage.extend((0..10_000u32).map(|i| (i * 37) as u8));
    assert!(cuszp::decompress::<f32>(&garbage).is_err());
    // scan must also survive it (header parses or it reports an error,
    // but never panics).
    let _ = scan(&garbage);
}
