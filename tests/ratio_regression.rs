//! Compression-ratio regression gate for the per-chunk codec plan.
//!
//! The adaptive plan (`PredictorMode::Auto` + `WorkflowMode::Auto` +
//! `LosslessMode::Auto`) exists to beat the historical fixed pipeline
//! (Lorenzo + Huffman, no lossless stage) where the data rewards it,
//! without ever paying meaningfully for data that doesn't. Both halves
//! are pinned here on datagen fields of known character:
//!
//! * **smooth** fields (CESM `PSL`, Miranda `pressure` and `density`)
//!   must compress strictly smaller under the auto plan;
//! * **rough** fields (HACC `vx` particle velocities) must stay within a
//!   small epsilon of the forced pipeline — the probes may not win, but
//!   they must not lose more than their decision margin.

use cuszp::datagen::{dataset_fields, generate, DatasetKind, Field, Scale};
use cuszp::metrics::verify_error_bound;
use cuszp::{
    Compressor, Config, ErrorBound, LosslessMode, Predictor, PredictorMode, WorkflowChoice,
    WorkflowMode,
};

const EB: f64 = 1e-3;

/// Rough fields may lose at most 2% to the adaptive plan: the predictor
/// probe keeps a decision margin and the lossless stage only engages
/// when a trial prefix says it pays.
const ROUGH_EPSILON: f64 = 1.02;

fn field_by_name(kind: DatasetKind, name: &str) -> Field {
    let spec = dataset_fields(kind)
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no field {name} in {}", kind.name()));
    generate(&spec, Scale::Tiny)
}

fn compressed_len(field: &Field, config: Config) -> usize {
    let eb = config.error_bound.absolute(&field.data);
    let archive = Compressor::new(config)
        .compress(&field.data, field.dims)
        .unwrap();
    let bytes = archive.to_bytes();
    let (recon, _) = cuszp::decompress::<f32>(&bytes).unwrap();
    verify_error_bound(&field.data, &recon, eb)
        .unwrap_or_else(|(i, e)| panic!("{}: bound violated at {i}: {e}", field.name));
    bytes.len()
}

fn auto_plan() -> Config {
    Config {
        error_bound: ErrorBound::Relative(EB),
        predictor: PredictorMode::Auto,
        workflow: WorkflowMode::Auto,
        lossless: LosslessMode::Auto,
        ..Config::default()
    }
}

fn forced_lorenzo_huffman() -> Config {
    Config {
        error_bound: ErrorBound::Relative(EB),
        predictor: PredictorMode::Force(Predictor::Lorenzo),
        workflow: WorkflowMode::Force(WorkflowChoice::Huffman),
        lossless: LosslessMode::Off,
        ..Config::default()
    }
}

#[test]
fn auto_plan_beats_forced_pipeline_on_smooth_fields() {
    for (kind, name) in [
        (DatasetKind::CesmAtm, "PSL"),
        (DatasetKind::Miranda, "pressure"),
        (DatasetKind::Miranda, "density"),
    ] {
        let field = field_by_name(kind, name);
        let auto = compressed_len(&field, auto_plan());
        let forced = compressed_len(&field, forced_lorenzo_huffman());
        assert!(
            auto < forced,
            "{}/{name}: auto plan {auto} B must beat forced lorenzo+huffman {forced} B",
            kind.name()
        );
    }
}

#[test]
fn auto_plan_stays_within_epsilon_on_rough_fields() {
    for (kind, name) in [(DatasetKind::Hacc, "vx"), (DatasetKind::Hacc, "x")] {
        let field = field_by_name(kind, name);
        let auto = compressed_len(&field, auto_plan());
        let forced = compressed_len(&field, forced_lorenzo_huffman());
        assert!(
            (auto as f64) <= forced as f64 * ROUGH_EPSILON,
            "{}/{name}: auto plan {auto} B loses more than {:.0}% to forced {forced} B",
            kind.name(),
            (ROUGH_EPSILON - 1.0) * 100.0
        );
    }
}
