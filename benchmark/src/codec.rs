//! The codec loop: compress and then fully decompress every field of a
//! workload through the CLI's chunked path with one worker, and its
//! traced counterpart, which replays each field stage by stage through
//! the layers' public functions in engine order.

use crate::fields::Input;
use crate::trace::Tracer;
use crate::Tally;
use cuszp_analysis::{analyze_with_histogram, WorkflowChoice};
use cuszp_core::{
    ChunkedArchive, CodesPayload, Compressor, Config, ErrorBound, LosslessStage, Predictor,
};
use cuszp_huffman::{build_codebook_limited, HuffmanEncoded, DEFAULT_ENCODE_CHUNK};
use cuszp_parallel::{plan_chunks, WorkerPool, DEFAULT_CHUNK_ELEMS};
use cuszp_predictor::{ReconstructEngine, DEFAULT_CAP};
use std::time::Instant;

/// Relative error bound of every codec workload.
pub const REL_EB: f64 = 1e-3;

/// Max length of the length-limited Huffman codes the engine builds.
const HUFFMAN_MAX_LEN: u8 = 16;

/// The replayed stages, in engine order. Timing metrics are reported as
/// `<stage>_ms`.
pub const STAGES: [&str; 15] = [
    "predictor.prequantize",
    "predictor.lorenzo_codes",
    "predictor.outlier_gather",
    "huffman.histogram",
    "analysis.select",
    "huffman.codebook",
    "huffman.encode",
    "rle.encode",
    "core.serialize",
    "core.parse",
    "huffman.decode",
    "rle.decode",
    "predictor.fuse",
    "predictor.reconstruct",
    "predictor.dequantize",
];

/// Index of the first decompression-side stage in [`STAGES`].
pub const FIRST_DECOMPRESS_STAGE: usize = 9;

/// Stages whose bytes moved are computed and reported as
/// `<stage>_mib_computed`. Serialization, parsing, selection and the
/// codebook are left out: their traffic is not a function of the field
/// size alone.
pub const KERNELS: [&str; 11] = [
    "predictor.prequantize",
    "predictor.lorenzo_codes",
    "predictor.outlier_gather",
    "huffman.histogram",
    "huffman.encode",
    "rle.encode",
    "huffman.decode",
    "rle.decode",
    "predictor.fuse",
    "predictor.reconstruct",
    "predictor.dequantize",
];

fn stage(name: &str) -> usize {
    STAGES
        .iter()
        .position(|s| *s == name)
        .expect("stage is listed in STAGES")
}

/// The compressor the CLI builds for `cuszp compress -e 1e-3`: relative
/// bound, adaptive workflow, Lorenzo, no lossless wrap.
pub fn compressor() -> Compressor {
    Compressor::new(Config {
        error_bound: ErrorBound::Relative(REL_EB),
        ..Config::default()
    })
}

/// A workload's fields with their reference archives.
#[derive(Debug)]
pub struct CodecSet {
    /// Input fields.
    pub inputs: Vec<Input>,
    /// Archive bytes of each field, from the untimed set-up rep.
    pub archives: Vec<Vec<u8>>,
    /// Absolute error bound each archive was built with.
    pub ebs: Vec<f64>,
}

impl CodecSet {
    /// Compresses and decompresses every field once (the untimed warm-up
    /// rep) and keeps the archives as the byte-identity reference.
    pub fn prepare(inputs: Vec<Input>, pool: &WorkerPool) -> Result<CodecSet, String> {
        let comp = compressor();
        let mut archives = Vec::new();
        let mut ebs = Vec::new();
        for input in &inputs {
            let arc = comp
                .compress_chunked_with(&input.data, input.dims, DEFAULT_CHUNK_ELEMS, pool)
                .map_err(|e| format!("{}: compress: {e}", input.label))?;
            let bytes = arc.to_bytes();
            let (recon, _) = cuszp_core::decompress(&bytes)
                .map_err(|e| format!("{}: decompress: {e}", input.label))?;
            if !within_bound(&input.data, &recon, arc.eb) {
                return Err(format!("{}: error bound violated in set-up", input.label));
            }
            ebs.push(arc.eb);
            archives.push(bytes);
        }
        Ok(CodecSet {
            inputs,
            archives,
            ebs,
        })
    }

    /// Total input bytes.
    pub fn input_bytes(&self) -> usize {
        self.inputs.iter().map(Input::bytes).sum()
    }

    /// Total archive bytes.
    pub fn archive_bytes(&self) -> usize {
        self.archives.iter().map(Vec::len).sum()
    }
}

/// `max |x − x̂| ≤ eb`, with the repository's one-ULP slack for the final
/// `f32` rounding.
pub fn within_bound(orig: &[f32], recon: &[f32], eb: f64) -> bool {
    orig.len() == recon.len() && cuszp_metrics::verify_error_bound(orig, recon, eb).is_ok()
}

/// Operation tallies of the codec loop.
#[derive(Debug, Default, Clone)]
pub struct CodecTally {
    /// One per field compressed; fails on an error or different bytes.
    pub compress: Tally,
    /// One per field decompressed; fails on an error or a bound breach.
    pub decompress: Tally,
    /// One per field replayed (traced runs); fails when the replay does
    /// not reproduce the real calls' codes and reconstruction.
    pub replay: Tally,
}

/// One untraced rep over all fields: returns the compress and decompress
/// seconds summed over the fields.
pub fn rep(set: &CodecSet, pool: &WorkerPool, tally: &mut CodecTally) -> (f64, f64) {
    let comp = compressor();
    let (mut tc, mut td) = (0.0, 0.0);
    for (i, input) in set.inputs.iter().enumerate() {
        let t = Instant::now();
        let bytes = comp
            .compress_chunked_with(&input.data, input.dims, DEFAULT_CHUNK_ELEMS, pool)
            .map(|arc| arc.to_bytes());
        tc += t.elapsed().as_secs_f64();
        tally
            .compress
            .record(matches!(&bytes, Ok(b) if *b == set.archives[i]));
        let bytes = bytes.unwrap_or_else(|_| set.archives[i].clone());

        let t = Instant::now();
        let recon = cuszp_core::decompress(&bytes);
        td += t.elapsed().as_secs_f64();
        tally
            .decompress
            .record(matches!(&recon, Ok((r, _)) if within_bound(&input.data, r, set.ebs[i])));
    }
    (tc, td)
}

/// What one traced rep of one field measured.
#[derive(Debug, Clone, Default)]
pub struct FieldTrace {
    /// Milliseconds per stage, indexed like [`STAGES`].
    pub stage_ms: Vec<f64>,
    /// Computed MiB moved per kernel, indexed like [`KERNELS`].
    pub kernel_mib: Vec<f64>,
    /// Wall time of the real `compress_chunked_with` + `to_bytes`.
    pub e2e_compress_ms: f64,
    /// Wall time of the real `from_bytes` + `decompress_with`.
    pub e2e_decompress_ms: f64,
    /// Outliers gathered.
    pub outliers: u64,
    /// Huffman-coded symbols.
    pub huffman_symbols: u64,
    /// Total bits of the Huffman bitstreams.
    pub huffman_bits: u64,
    /// Huffman payload bytes.
    pub huffman_payload_bytes: u64,
    /// Chunks in the archive.
    pub chunks: u64,
}

impl FieldTrace {
    /// Sum of the compression-side stages.
    pub fn compress_stage_ms(&self) -> f64 {
        self.stage_ms[..FIRST_DECOMPRESS_STAGE].iter().sum()
    }

    /// Sum of the decompression-side stages.
    pub fn decompress_stage_ms(&self) -> f64 {
        self.stage_ms[FIRST_DECOMPRESS_STAGE..].iter().sum()
    }

    /// End-to-end time not covered by a replayed stage.
    pub fn unaccounted_ms(&self) -> f64 {
        self.e2e_compress_ms + self.e2e_decompress_ms
            - self.compress_stage_ms()
            - self.decompress_stage_ms()
    }
}

/// One traced rep of one field. The real calls run first and are split
/// at their public seams (`compress_chunked_with` | `to_bytes`,
/// `from_bytes` | `decompress_with`); the replay then rebuilds every
/// chunk stage by stage and must reproduce the real outliers and coded
/// payload and the bit-identical reconstruction, else the replay is
/// tallied as failed.
pub fn traced_rep(
    tr: &mut Tracer,
    op: u64,
    input: &Input,
    expected: &[u8],
    pool: &WorkerPool,
    tally: &mut CodecTally,
) -> FieldTrace {
    let mut ft = FieldTrace {
        stage_ms: vec![0.0; STAGES.len()],
        kernel_mib: vec![0.0; KERNELS.len()],
        ..FieldTrace::default()
    };
    let root = tr.reserve();
    let root_start = tr.now_ns();

    let comp = compressor();
    let (arc, t_compress) = tr.time("core.compress_chunked", root, op, || {
        comp.compress_chunked_with(&input.data, input.dims, DEFAULT_CHUNK_ELEMS, pool)
    });
    let Ok(arc) = arc else {
        tally.replay.record(false);
        return ft;
    };
    let (bytes, t_ser) = tr.time("core.serialize", root, op, || arc.to_bytes());
    ft.stage_ms[stage("core.serialize")] = t_ser;
    ft.e2e_compress_ms = t_compress + t_ser;
    let (parsed, t_parse) = tr.time("core.parse", root, op, || {
        ChunkedArchive::from_bytes(&bytes)
    });
    ft.stage_ms[stage("core.parse")] = t_parse;
    let Ok(parsed) = parsed else {
        tally.replay.record(false);
        return ft;
    };
    let (recon, t_decomp) = tr.time("core.decompress_chunked", root, op, || {
        parsed.decompress_with(ReconstructEngine::FinePartialSum, pool)
    });
    ft.e2e_decompress_ms = t_parse + t_decomp;
    let Ok((recon, _)) = recon else {
        tally.replay.record(false);
        return ft;
    };

    let replayed = replay(tr, root, op, input, &parsed, &mut ft);
    tr.record("bench.field_rep", root, 0, op, root_start);

    let ok = bytes == expected
        && replayed.is_some_and(|out| {
            out.len() == recon.len()
                && out
                    .iter()
                    .zip(&recon)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
    tally.replay.record(ok);
    ft
}

/// Replays compression and decompression of every chunk of `arc` from
/// the input field; returns the reconstruction, or `None` when a chunk's
/// replayed outliers or payload differ from the archive's.
fn replay(
    tr: &mut Tracer,
    root: u64,
    op: u64,
    input: &Input,
    arc: &ChunkedArchive,
    ft: &mut FieldTrace,
) -> Option<Vec<f32>> {
    let dims = input.dims;
    let plan = plan_chunks(
        &[dims.slow_extent(), dims.elems_per_slow()],
        DEFAULT_CHUNK_ELEMS,
    );
    if plan.chunks.len() != arc.chunks.len() {
        return None;
    }
    let cap = DEFAULT_CAP;
    let radius = cap / 2;
    let eb = arc.eb;
    let mut dq: Vec<i64> = Vec::new();
    let mut codes: Vec<u16> = Vec::new();
    let mut hist: Vec<u32> = Vec::new();
    let mut out = vec![0f32; dims.len()];
    let mut reproduced = true;
    ft.chunks = plan.chunks.len() as u64;

    for (spec, chunk) in plan.chunks.iter().zip(&arc.chunks) {
        if chunk.predictor != Predictor::Lorenzo || chunk.lossless != LosslessStage::None {
            return None;
        }
        let cdims = dims.slab(spec.slow_len());
        let n = cdims.len();
        let data = &input.data[spec.elems.clone()];
        let nf = n as f64;
        let mib = |bytes: f64| bytes / (1024.0 * 1024.0);

        // Compression, engine order.
        dq.resize(n, 0);
        let ((), ms) = tr.time("predictor.prequantize", root, op, || {
            cuszp_predictor::prequantize_into(data, eb, &mut dq)
        });
        add(ft, "predictor.prequantize", ms, mib(12.0 * nf));
        let ((), ms) = tr.time("predictor.lorenzo_codes", root, op, || {
            cuszp_predictor::construct_codes_into(&dq, cdims, radius, &mut codes)
        });
        add(ft, "predictor.lorenzo_codes", ms, mib(10.0 * nf));
        let (outliers, ms) = tr.time("predictor.outlier_gather", root, op, || {
            cuszp_predictor::gather_outliers(&dq, &codes, cdims, radius)
        });
        add(ft, "predictor.outlier_gather", ms, mib(2.0 * nf));
        ft.outliers += outliers.len() as u64;
        let ((), ms) = tr.time("huffman.histogram", root, op, || {
            cuszp_huffman::histogram_into(&codes, cap as usize, &mut hist)
        });
        add(ft, "huffman.histogram", ms, mib(2.0 * nf));
        let (report, ms) = tr.time("analysis.select", root, op, || {
            analyze_with_histogram(&codes, &hist)
        });
        add(ft, "analysis.select", ms, 0.0);
        let payload = match report.choice {
            WorkflowChoice::Huffman => {
                let (book, ms) = tr.time("huffman.codebook", root, op, || {
                    build_codebook_limited(&hist, HUFFMAN_MAX_LEN)
                });
                add(ft, "huffman.codebook", ms, 0.0);
                let (enc, ms) = tr.time("huffman.encode", root, op, || {
                    cuszp_huffman::encode(&codes, &book, DEFAULT_ENCODE_CHUNK)
                });
                add(
                    ft,
                    "huffman.encode",
                    ms,
                    mib(2.0 * nf + enc.payload.len() as f64),
                );
                CodesPayload::Huffman(enc)
            }
            WorkflowChoice::Rle => {
                let (enc, ms) = tr.time("rle.encode", root, op, || cuszp_rle::rle_encode(&codes));
                add(
                    ft,
                    "rle.encode",
                    ms,
                    mib(2.0 * nf + enc.storage_bytes() as f64),
                );
                CodesPayload::Rle(enc)
            }
            WorkflowChoice::RleVle => {
                let (enc, ms) = tr.time("rle.encode", root, op, || {
                    cuszp_rle::rle_vle_encode(&codes, cap)
                });
                add(
                    ft,
                    "rle.encode",
                    ms,
                    mib(2.0 * nf + enc.storage_bytes() as f64),
                );
                CodesPayload::RleVle(enc)
            }
        };
        reproduced &= outliers == chunk.outliers && payload == chunk.payload;

        // Decompression, engine order, from the archive's own payload.
        let (decoded, ms, name) = match &chunk.payload {
            CodesPayload::Huffman(h) => {
                let (r, ms) = tr.time("huffman.decode", root, op, || {
                    cuszp_huffman::decode_fast_checked_into(h, &mut codes)
                });
                (r, ms, "huffman.decode")
            }
            CodesPayload::Rle(r) => {
                let (r, ms) = tr.time("rle.decode", root, op, || {
                    cuszp_rle::rle_decode_checked_into(r, &mut codes)
                });
                (r, ms, "rle.decode")
            }
            CodesPayload::RleVle(r) => {
                let (r, ms) = tr.time("rle.decode", root, op, || {
                    cuszp_rle::rle_vle_decode_checked_into(r, &mut codes)
                });
                (r, ms, "rle.decode")
            }
        };
        decoded?;
        add(
            ft,
            name,
            ms,
            mib(2.0 * nf + chunk.payload.storage_bytes() as f64),
        );
        if let CodesPayload::Huffman(h) = &chunk.payload {
            count_huffman(ft, h);
        }
        let ((), ms) = tr.time("predictor.fuse", root, op, || {
            cuszp_predictor::fuse_codes_and_outliers_into(&codes, &chunk.outliers, radius, &mut dq)
        });
        add(ft, "predictor.fuse", ms, mib(10.0 * nf));
        let ((), ms) = tr.time("predictor.reconstruct", root, op, || {
            cuszp_predictor::reconstruct_in_place(&mut dq, cdims, ReconstructEngine::FinePartialSum)
        });
        add(
            ft,
            "predictor.reconstruct",
            ms,
            mib(16.0 * nf * cdims.rank() as f64),
        );
        let slab = &mut out[spec.elems.clone()];
        let ((), ms) = tr.time("predictor.dequantize", root, op, || {
            cuszp_predictor::dequantize_into(&dq, eb, slab)
        });
        add(ft, "predictor.dequantize", ms, mib(12.0 * nf));
    }
    reproduced.then_some(out)
}

fn add(ft: &mut FieldTrace, name: &str, ms: f64, mib: f64) {
    ft.stage_ms[stage(name)] += ms;
    if let Some(k) = KERNELS.iter().position(|s| *s == name) {
        ft.kernel_mib[k] += mib;
    }
}

fn count_huffman(ft: &mut FieldTrace, h: &HuffmanEncoded) {
    ft.huffman_symbols += h.n_symbols;
    ft.huffman_bits += h.chunk_bits.iter().map(|&b| b as u64).sum::<u64>();
    ft.huffman_payload_bytes += h.payload.len() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{generate_inputs, Slot};
    use crate::trace::Tracer;
    use cuszp_datagen::{DatasetKind, Scale};
    use cuszp_predictor::Dims;

    fn tiny_set() -> CodecSet {
        cuszp_parallel::set_workers(1);
        let slots = [Slot {
            dataset: DatasetKind::Nyx,
            candidates: &["baryon_density"],
        }];
        let mut inputs = generate_inputs(&slots, 11, Scale::Tiny).unwrap();
        // Four flat plateaus: codes are almost all the zero-error symbol,
        // so the selector takes the RLE path.
        let dims = Dims::D2 { ny: 256, nx: 256 };
        inputs.push(Input {
            label: "plateaus".to_string(),
            dims,
            data: (0..dims.len()).map(|i| (i / (256 * 64)) as f32).collect(),
        });
        CodecSet::prepare(inputs, &WorkerPool::new(1)).unwrap()
    }

    #[test]
    fn gates_pass_on_the_real_archives_and_catch_different_bytes() {
        let mut set = tiny_set();
        let pool = WorkerPool::new(1);
        let mut tally = CodecTally::default();
        rep(&set, &pool, &mut tally);
        assert_eq!(
            tally.compress,
            Tally {
                attempted: 2,
                failed: 0
            }
        );
        assert_eq!(
            tally.decompress,
            Tally {
                attempted: 2,
                failed: 0
            }
        );

        let last = set.archives[1].len() - 1;
        set.archives[1][last] ^= 1;
        let mut tally = CodecTally::default();
        rep(&set, &pool, &mut tally);
        assert_eq!(
            tally.compress,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }

    #[test]
    fn replay_reproduces_the_real_calls_and_accounts_its_stages() {
        let set = tiny_set();
        let pool = WorkerPool::new(1);
        let mut tr = Tracer::new(Instant::now(), 0);
        let mut tally = CodecTally::default();
        for (input, expected) in set.inputs.iter().zip(&set.archives) {
            let ft = traced_rep(&mut tr, 0, input, expected, &pool, &mut tally);
            assert!(ft.stage_ms.iter().all(|&ms| ms >= 0.0));
            assert!(ft.compress_stage_ms() > 0.0 && ft.decompress_stage_ms() > 0.0);
            assert!(ft.chunks >= 1);
        }
        assert_eq!(
            tally.replay,
            Tally {
                attempted: 2,
                failed: 0
            }
        );
        // The plateaus are RLE-coded and the density Huffman-coded, so
        // both decoder families were replayed.
        let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
        assert!(names.contains(&"huffman.decode"));
        assert!(names.contains(&"rle.decode"));

        let mut tally = CodecTally::default();
        let mut wrong = set.archives[0].clone();
        let last = wrong.len() - 1;
        wrong[last] ^= 1;
        traced_rep(&mut tr, 1, &set.inputs[0], &wrong, &pool, &mut tally);
        assert_eq!(
            tally.replay,
            Tally {
                attempted: 1,
                failed: 1
            }
        );
    }
}
