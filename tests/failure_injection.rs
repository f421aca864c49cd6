//! Failure injection: corrupted, truncated, and tampered archives must
//! surface errors — never panic, never silently return wrong data.

use cuszp::{Compressor, Config, CuszpError, Dims, ErrorBound, WorkflowChoice, WorkflowMode};

fn sample_archive(wf: WorkflowChoice) -> Vec<u8> {
    let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin() * 5.0).collect();
    let c = Compressor::new(Config {
        error_bound: ErrorBound::Absolute(1e-3),
        workflow: WorkflowMode::Force(wf),
        ..Config::default()
    });
    c.compress(&data, Dims::D1(4096)).unwrap().to_bytes()
}

#[test]
fn truncation_at_every_boundary_errors_cleanly() {
    for wf in [
        WorkflowChoice::Huffman,
        WorkflowChoice::Rle,
        WorkflowChoice::RleVle,
    ] {
        let bytes = sample_archive(wf);
        // Cut at a spread of positions including header, outliers, codes.
        for cut in [
            0usize,
            1,
            4,
            7,
            30,
            60,
            80,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            let r = cuszp::decompress::<f32>(&bytes[..cut.min(bytes.len())]);
            assert!(r.is_err(), "truncated at {cut} must fail ({})", wf.name());
        }
    }
}

#[test]
fn single_bit_flips_are_detected() {
    for wf in [
        WorkflowChoice::Huffman,
        WorkflowChoice::Rle,
        WorkflowChoice::RleVle,
    ] {
        let bytes = sample_archive(wf);
        // Flip a bit every ~97 bytes; every flip must be either caught
        // (checksum / structural error) — silent corruption of payload
        // bytes is impossible because FNV covers the payload, and header
        // flips break magic/rank/len checks.
        let mut caught = 0usize;
        let mut total = 0usize;
        for pos in (0..bytes.len()).step_by(97) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            total += 1;
            match cuszp::decompress::<f32>(&corrupt) {
                Err(_) => caught += 1,
                Ok((data, dims)) => {
                    // A flip in the header's eb field (bytes 32..40)
                    // changes only the dequantization scale, which the
                    // checksum cannot see (it guards the payload).
                    // Anything else must at least stay structurally
                    // consistent.
                    assert!(
                        (32..40).contains(&pos) || data.len() == dims.len(),
                        "flip at {pos} silently accepted ({})",
                        wf.name()
                    );
                }
            }
        }
        assert!(
            caught * 10 >= total * 9,
            "{}: only {caught}/{total} flips caught",
            wf.name()
        );
    }
}

#[test]
fn version_and_magic_are_enforced() {
    let mut bytes = sample_archive(WorkflowChoice::Huffman);
    // Magic at offset 0..4.
    bytes[0] ^= 0xFF;
    assert!(matches!(
        cuszp::decompress::<f32>(&bytes),
        Err(CuszpError::MalformedArchive(_))
    ));
    let mut bytes = sample_archive(WorkflowChoice::Huffman);
    // Version at offset 4..6.
    bytes[4] = 0xEE;
    assert!(matches!(
        cuszp::decompress::<f32>(&bytes),
        Err(CuszpError::UnsupportedVersion(_))
    ));
}

#[test]
fn empty_and_garbage_inputs() {
    assert!(cuszp::decompress::<f32>(&[]).is_err());
    assert!(cuszp::decompress::<f32>(b"not an archive at all").is_err());
    let garbage: Vec<u8> = (0..10_000u32).map(|i| (i * 31) as u8).collect();
    assert!(cuszp::decompress::<f32>(&garbage).is_err());
}

#[test]
fn rank_tampering_is_rejected() {
    let mut bytes = sample_archive(WorkflowChoice::Huffman);
    // Rank byte at offset 7 (after magic u32 + version u16 + workflow u8).
    bytes[7] = 9;
    assert!(
        cuszp::decompress::<f32>(&bytes).is_err(),
        "bad rank accepted"
    );
}

#[test]
fn compressor_input_validation() {
    let c = Compressor::default();
    assert!(matches!(
        c.compress(&[1.0; 10], Dims::D1(11)),
        Err(CuszpError::DimsMismatch { .. })
    ));
    assert!(matches!(
        c.compress(&[f32::INFINITY], Dims::D1(1)),
        Err(CuszpError::NonFiniteInput)
    ));
    let c = Compressor::new(Config {
        error_bound: ErrorBound::Absolute(f64::NAN),
        ..Config::default()
    });
    assert!(matches!(
        c.compress(&[1.0], Dims::D1(1)),
        Err(CuszpError::InvalidErrorBound(_))
    ));
}
