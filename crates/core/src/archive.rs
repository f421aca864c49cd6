//! Archive container: a self-describing byte layout for one compressed
//! field.
//!
//! Layout (little-endian throughout):
//!
//! ```text
//! [magic u32][version u16][workflow u8][rank u8]
//! [extent_z u64][extent_y u64][extent_x u64]
//! [eb f64][cap u16][dtype u8][predictor u8][lossless u8][reserved 3]
//! [n_outliers u64][payload_len u64][checksum u64]
//! payload:
//!   outlier indices (n·u64), outlier values (n·i64), codes section
//! ```
//!
//! Bytes 42–47 are the **plan descriptor**: dtype, predictor, and the
//! post-coding lossless stage, with three reserved must-be-zero bytes.
//! Pre-plan archives wrote six zero bytes there, which parse as
//! `{f32, lorenzo, none}` — exactly what those archives contain — so the
//! descriptor is strictly additive and every existing archive decodes
//! byte-identically.
//!
//! When the lossless byte is 1 (bitshuffle+LZ77), the codes section is
//! stored as `[raw_len u64][CZLZ container]`: the plain entropy-coded
//! section is bitshuffled, LZ77+Huffman coded, and prefixed with its
//! own unwrapped length so the parser can bound the inflate-side
//! allocation before decoding a byte.
//!
//! The checksum is FNV-1a over the payload so storage corruption is
//! detected before reconstruction runs.

use crate::error::{ArchiveSection, CuszpError};
use crate::workflow::{decode_codes_checked_into, CodesPayload};
use crate::{CodecPlan, LosslessStage, Predictor};
use cuszp_analysis::WorkflowChoice;
use cuszp_huffman::HuffmanEncoded;
use cuszp_metrics::fnv1a;
use cuszp_predictor::{Dims, OutlierList, QuantField, Scalar};
use cuszp_rle::{RleEncoded, RleVleEncoded};

const MAGIC: u32 = 0x2B5A_5343; // "CSZ+"
const VERSION: u16 = 1;
const HEADER_BYTES: usize = 4 + 2 + 1 + 1 + 24 + 8 + 2 + 6 + 8 + 8 + 8;

/// Element type of the compressed field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    /// 32-bit IEEE-754.
    F32,
    /// 64-bit IEEE-754.
    F64,
}

impl Dtype {
    /// Display name ("f32"/"f64").
    pub fn name(&self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F64 => "f64",
        }
    }

    /// Bytes per element.
    pub fn bytes(&self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::F64 => 8,
        }
    }

    /// The element type stored in serialized archive bytes (v1 or
    /// chunked), read from the header alone — nothing is checksummed or
    /// decoded. `None` when the header is unusable; callers that then
    /// decode anyway get the parser's typed error.
    pub fn of_archive(bytes: &[u8]) -> Option<Dtype> {
        if crate::is_chunked_archive(bytes) {
            crate::chunked::parse_chunked_header(bytes)
                .ok()
                .map(|h| h.dtype)
        } else {
            peek_v1_header(bytes).map(|(_, dtype)| dtype)
        }
    }

    /// The tag of the element type `T`.
    pub(crate) fn of<T: Scalar>() -> Dtype {
        if T::BYTES == 4 {
            Dtype::F32
        } else {
            Dtype::F64
        }
    }

    /// The one dtype check of every decode path: a field stored as `self`
    /// decodes only into the matching `T`.
    pub(crate) fn check<T: Scalar>(self) -> Result<(), CuszpError> {
        if self == Dtype::of::<T>() {
            Ok(())
        } else {
            Err(CuszpError::DtypeMismatch {
                stored: self.name(),
                requested: Dtype::of::<T>().name(),
            })
        }
    }
}

/// A compressed field: header parameters plus the coded payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Archive {
    /// Element type the field was compressed from.
    pub dtype: Dtype,
    /// Prediction scheme used at compression time.
    pub predictor: Predictor,
    /// Field dimensions.
    pub dims: Dims,
    /// Absolute error bound used at compression time.
    pub eb: f64,
    /// Quantization cap.
    pub cap: u16,
    /// Sparse outliers.
    pub outliers: OutlierList,
    /// Entropy-coded quant-codes.
    pub payload: CodesPayload,
    /// Post-coding lossless stage applied to the codes section.
    pub lossless: LosslessStage,
    /// When `lossless` is active: the stored codes-section bytes
    /// (`[raw_len u64][CZLZ container]`), cached so serialization is
    /// byte-stable without re-running the lossless coder.
    wrapped: Option<Vec<u8>>,
}

impl Archive {
    /// Assembles an archive from the prediction stage's output and the
    /// chosen coding payload.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        dims: Dims,
        eb: f64,
        cap: u16,
        outliers: OutlierList,
        payload: CodesPayload,
        dtype: Dtype,
        predictor: Predictor,
    ) -> Self {
        Self {
            dtype,
            predictor,
            dims,
            eb,
            cap,
            outliers,
            payload,
            lossless: LosslessStage::None,
            wrapped: None,
        }
    }

    /// The entropy-coding workflow the codes section uses.
    pub fn workflow(&self) -> WorkflowChoice {
        match self.payload {
            CodesPayload::Huffman(_) => WorkflowChoice::Huffman,
            CodesPayload::Rle(_) => WorkflowChoice::Rle,
            CodesPayload::RleVle(_) => WorkflowChoice::RleVle,
        }
    }

    /// The codec plan this archive records in its header.
    pub fn plan(&self) -> CodecPlan {
        CodecPlan {
            predictor: self.predictor,
            workflow: self.workflow(),
            lossless: self.lossless,
        }
    }

    /// The plain (unwrapped) codes-section bytes — what byte 44 = 0
    /// would store. The lossless probe compresses these.
    pub(crate) fn codes_section_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(codes_section_len(&self.payload));
        write_codes_section(&self.payload, &mut out);
        out
    }

    /// Switches the codes section to its lossless-wrapped form. `raw_len`
    /// is the plain section's byte length, `compressed` the CZLZ
    /// container of its bitshuffled bytes.
    pub(crate) fn set_lossless_wrap(&mut self, raw_len: usize, compressed: Vec<u8>) {
        let mut w = Vec::with_capacity(8 + compressed.len());
        w.extend_from_slice(&(raw_len as u64).to_le_bytes());
        w.extend_from_slice(&compressed);
        self.lossless = LosslessStage::BitshuffleLz77;
        self.wrapped = Some(w);
    }

    /// Rebuilds the [`QuantField`] (decoding the code payload).
    pub fn to_quant_field(&self) -> Result<QuantField, CuszpError> {
        let mut codes = Vec::new();
        self.decode_codes_into(&mut codes)?;
        Ok(QuantField {
            codes,
            outliers: self.outliers.clone(),
            radius: self.cap / 2,
            dims: self.dims,
            eb: self.eb,
        })
    }

    /// Decodes the code payload into a caller-owned buffer (cleared
    /// first), validating the decoded count against the header dims. This
    /// is [`Archive::to_quant_field`] minus the outlier clone and the
    /// fresh allocation — the pipeline engine's scratch-reusing decode.
    pub fn decode_codes_into(&self, out: &mut Vec<u16>) -> Result<(), CuszpError> {
        let codes_off = HEADER_BYTES + self.outliers.len() * 16;
        decode_codes_checked_into(&self.payload, out).ok_or(CuszpError::malformed(
            "undecodable codes payload",
            ArchiveSection::CodesSection,
            codes_off,
        ))?;
        if out.len() != self.dims.len() {
            return Err(CuszpError::malformed(
                "decoded code count mismatches dims",
                ArchiveSection::CodesSection,
                codes_off,
            ));
        }
        Ok(())
    }

    /// Total serialized size in bytes.
    pub fn serialized_bytes(&self) -> usize {
        let codes = match &self.wrapped {
            Some(w) => w.len(),
            None => codes_section_len(&self.payload),
        };
        HEADER_BYTES + self.outliers.storage_bytes() + codes
    }

    /// Serializes the archive.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_bytes());
        self.write_into(&mut out);
        out
    }

    /// Serializes the archive by appending to `out`, writing every
    /// section directly into the destination — no per-section staging
    /// buffers. `codes_section_len` is exact, so the payload length is
    /// known up front and the checksum is the only field patched after
    /// the payload is written.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        let payload_len = self.serialized_bytes() - HEADER_BYTES;
        out.reserve(HEADER_BYTES + payload_len);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(workflow_tag(&self.payload));
        out.push(self.dims.rank() as u8);
        for e in self.dims.extents() {
            out.extend_from_slice(&(e as u64).to_le_bytes());
        }
        out.extend_from_slice(&self.eb.to_le_bytes());
        out.extend_from_slice(&self.cap.to_le_bytes());
        out.push(match self.dtype {
            Dtype::F32 => 0,
            Dtype::F64 => 1,
        });
        out.push(match self.predictor {
            Predictor::Lorenzo => 0,
            Predictor::Interpolation => 1,
        });
        out.push(match self.lossless {
            LosslessStage::None => 0,
            LosslessStage::BitshuffleLz77 => 1,
        });
        out.extend_from_slice(&[0u8; 3]);
        out.extend_from_slice(&(self.outliers.len() as u64).to_le_bytes());
        out.extend_from_slice(&(payload_len as u64).to_le_bytes());
        let checksum_at = out.len();
        out.extend_from_slice(&0u64.to_le_bytes());
        let payload_start = out.len();
        for &i in &self.outliers.indices {
            out.extend_from_slice(&i.to_le_bytes());
        }
        for &v in &self.outliers.values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        match &self.wrapped {
            Some(w) => out.extend_from_slice(w),
            None => write_codes_section(&self.payload, out),
        }
        debug_assert_eq!(out.len() - payload_start, payload_len);
        let checksum = fnv1a(&out[payload_start..]);
        out[checksum_at..checksum_at + 8].copy_from_slice(&checksum.to_le_bytes());
    }

    /// Parses an archive from bytes, verifying structure and checksum.
    ///
    /// Every validation runs before the allocation it guards, so
    /// adversarial length fields can neither panic the parser nor make it
    /// allocate more memory than the input buffer itself justifies.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CuszpError> {
        use ArchiveSection::Header;
        if bytes.len() < HEADER_BYTES {
            return Err(CuszpError::malformed(
                "shorter than header",
                Header,
                bytes.len(),
            ));
        }
        let mut pos = 0usize;
        let rd = |pos: &mut usize, n: usize| -> &[u8] {
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            s
        };
        let magic = u32::from_le_bytes(rd(&mut pos, 4).try_into().unwrap());
        if magic != MAGIC {
            return Err(CuszpError::malformed("bad magic", Header, 0));
        }
        let version = u16::from_le_bytes(rd(&mut pos, 2).try_into().unwrap());
        if version != VERSION {
            return Err(CuszpError::UnsupportedVersion(version));
        }
        let workflow = rd(&mut pos, 1)[0];
        let rank = rd(&mut pos, 1)[0];
        let ez = u64::from_le_bytes(rd(&mut pos, 8).try_into().unwrap()) as usize;
        let ey = u64::from_le_bytes(rd(&mut pos, 8).try_into().unwrap()) as usize;
        let ex = u64::from_le_bytes(rd(&mut pos, 8).try_into().unwrap()) as usize;
        let eb = f64::from_le_bytes(rd(&mut pos, 8).try_into().unwrap());
        let cap = u16::from_le_bytes(rd(&mut pos, 2).try_into().unwrap());
        let dtype = match rd(&mut pos, 1)[0] {
            0 => Dtype::F32,
            1 => Dtype::F64,
            _ => return Err(CuszpError::malformed("bad dtype", Header, 42)),
        };
        let predictor = match rd(&mut pos, 1)[0] {
            0 => Predictor::Lorenzo,
            1 => Predictor::Interpolation,
            _ => return Err(CuszpError::malformed("bad predictor", Header, 43)),
        };
        let lossless = match rd(&mut pos, 1)[0] {
            0 => LosslessStage::None,
            1 => LosslessStage::BitshuffleLz77,
            _ => return Err(CuszpError::malformed("bad lossless stage", Header, 44)),
        };
        if rd(&mut pos, 3) != [0u8; 3] {
            return Err(CuszpError::malformed(
                "nonzero reserved plan bytes",
                Header,
                45,
            ));
        }
        let n_outliers = u64::from_le_bytes(rd(&mut pos, 8).try_into().unwrap()) as usize;
        let payload_len = u64::from_le_bytes(rd(&mut pos, 8).try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(rd(&mut pos, 8).try_into().unwrap());

        let (dims, n_elems) = match rank {
            1 => (Dims::D1(ex), Some(ex)),
            2 => (Dims::D2 { ny: ey, nx: ex }, ey.checked_mul(ex)),
            3 => (
                Dims::D3 {
                    nz: ez,
                    ny: ey,
                    nx: ex,
                },
                ez.checked_mul(ey).and_then(|p| p.checked_mul(ex)),
            ),
            _ => return Err(CuszpError::malformed("bad rank", Header, 7)),
        };
        let n_elems = n_elems.ok_or(CuszpError::malformed("extent product overflow", Header, 8))?;
        if cap < 4 || cap % 2 != 0 {
            return Err(CuszpError::malformed("bad cap", Header, 40));
        }
        let payload = match bytes.get(pos..).and_then(|rest| rest.get(..payload_len)) {
            Some(p) => p,
            None => {
                return Err(CuszpError::malformed(
                    "truncated payload",
                    ArchiveSection::Payload,
                    bytes.len(),
                ))
            }
        };
        let actual = fnv1a(payload);
        if actual != checksum {
            return Err(CuszpError::checksum(checksum, actual, HEADER_BYTES));
        }

        let mut p = 0usize;
        let need = n_outliers.checked_mul(16).ok_or(CuszpError::malformed(
            "outlier count overflow",
            Header,
            48,
        ))?;
        if payload.len() < need {
            return Err(CuszpError::malformed(
                "truncated outliers",
                ArchiveSection::OutlierSection,
                HEADER_BYTES + payload.len(),
            ));
        }
        let mut indices = Vec::with_capacity(n_outliers);
        for _ in 0..n_outliers {
            let i = u64::from_le_bytes(payload[p..p + 8].try_into().unwrap());
            if i >= n_elems as u64 {
                return Err(CuszpError::malformed(
                    "outlier index out of bounds",
                    ArchiveSection::OutlierSection,
                    HEADER_BYTES + p,
                ));
            }
            indices.push(i);
            p += 8;
        }
        let mut values = Vec::with_capacity(n_outliers);
        for _ in 0..n_outliers {
            values.push(i64::from_le_bytes(payload[p..p + 8].try_into().unwrap()));
            p += 8;
        }
        let section = &payload[p..];
        let base = HEADER_BYTES + p;
        let (codes, wrapped) = match lossless {
            LosslessStage::None => (read_codes_section(workflow, section, n_elems, base)?, None),
            LosslessStage::BitshuffleLz77 => {
                use ArchiveSection::CodesSection;
                let fail =
                    |what: &'static str, off: usize| CuszpError::malformed(what, CodesSection, off);
                if section.len() < 8 {
                    return Err(fail("truncated lossless wrap", base + section.len()));
                }
                let raw_len = u64::from_le_bytes(section[0..8].try_into().unwrap());
                // The plain section can never exceed a small constant plus
                // 16 bytes per element (codes are ≤ u16 + run words); a
                // larger claim is hostile, reject before allocating.
                let cap_len = 64u64.saturating_add(16u64.saturating_mul(n_elems as u64));
                if raw_len > cap_len {
                    return Err(fail("lossless wrap claims oversized section", base));
                }
                let shuffled = cuszp_lossless::decompress_bounded(&section[8..], raw_len as usize)
                    .ok_or(fail("undecodable lossless wrap", base + 8))?;
                if shuffled.len() as u64 != raw_len {
                    return Err(fail("lossless wrap length mismatch", base));
                }
                let plain = cuszp_lossless::unbitshuffle(&shuffled);
                (
                    read_codes_section(workflow, &plain, n_elems, base)?,
                    Some(section.to_vec()),
                )
            }
        };
        Ok(Self {
            dtype,
            predictor,
            dims,
            eb,
            cap,
            outliers: OutlierList { indices, values },
            payload: codes,
            lossless,
            wrapped,
        })
    }
}

fn workflow_tag(payload: &CodesPayload) -> u8 {
    match payload {
        CodesPayload::Huffman(_) => 0,
        CodesPayload::Rle(_) => 1,
        CodesPayload::RleVle(_) => 2,
    }
}

fn codes_section_len(payload: &CodesPayload) -> usize {
    match payload {
        CodesPayload::Huffman(h) => h.serialized_bytes(),
        CodesPayload::Rle(r) => 16 + r.values.len() * 2 + r.counts.len() * 4,
        CodesPayload::RleVle(rv) => 16 + rv.serialized_bytes(),
    }
}

fn write_codes_section(payload: &CodesPayload, out: &mut Vec<u8>) {
    match payload {
        CodesPayload::Huffman(h) => h.write_into(out),
        CodesPayload::Rle(r) => {
            out.extend_from_slice(&r.n.to_le_bytes());
            out.extend_from_slice(&(r.values.len() as u64).to_le_bytes());
            for &v in &r.values {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for &c in &r.counts {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        CodesPayload::RleVle(rv) => {
            out.extend_from_slice(&rv.n.to_le_bytes());
            out.extend_from_slice(&rv.n_runs.to_le_bytes());
            rv.values.write_into(out);
            rv.counts.write_into(out);
        }
    }
}

/// Parses the entropy-coded codes section. `expected` is the element
/// count the header's dimensions declare — any payload whose own symbol
/// count disagrees is rejected here, before decode-time allocation.
/// `base` is the section's absolute byte offset, for fault reporting.
fn read_codes_section(
    tag: u8,
    bytes: &[u8],
    expected: usize,
    base: usize,
) -> Result<CodesPayload, CuszpError> {
    use ArchiveSection::CodesSection;
    let fail = |what: &'static str, off: usize| CuszpError::malformed(what, CodesSection, off);
    match tag {
        0 => {
            let (enc, _) =
                HuffmanEncoded::from_bytes(bytes).ok_or(fail("truncated Huffman section", base))?;
            if enc.n_symbols != expected as u64 {
                return Err(fail("Huffman symbol count mismatches dims", base));
            }
            Ok(CodesPayload::Huffman(enc))
        }
        1 => {
            if bytes.len() < 16 {
                return Err(fail("truncated RLE section", base + bytes.len()));
            }
            let n = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
            if n != expected as u64 {
                return Err(fail("RLE symbol count mismatches dims", base));
            }
            let n_runs = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
            let need = n_runs
                .checked_mul(6)
                .and_then(|b| b.checked_add(16))
                .ok_or(fail("RLE run count overflow", base + 8))?;
            if bytes.len() < need {
                return Err(fail("truncated RLE arrays", base + bytes.len()));
            }
            let mut p = 16usize;
            let mut values = Vec::with_capacity(n_runs);
            for _ in 0..n_runs {
                values.push(u16::from_le_bytes(bytes[p..p + 2].try_into().unwrap()));
                p += 2;
            }
            let mut counts = Vec::with_capacity(n_runs);
            let mut total = 0u64;
            for _ in 0..n_runs {
                let c = u32::from_le_bytes(bytes[p..p + 4].try_into().unwrap());
                total = total
                    .checked_add(c as u64)
                    .ok_or(fail("RLE run lengths overflow", base + p))?;
                counts.push(c);
                p += 4;
            }
            if total != n {
                return Err(fail("RLE run lengths do not sum to count", base + 16));
            }
            Ok(CodesPayload::Rle(RleEncoded { values, counts, n }))
        }
        2 => {
            if bytes.len() < 16 {
                return Err(fail("truncated RLE+VLE section", base + bytes.len()));
            }
            let n = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
            if n != expected as u64 {
                return Err(fail("RLE+VLE symbol count mismatches dims", base));
            }
            let n_runs = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
            let (values, used) = HuffmanEncoded::from_bytes(&bytes[16..])
                .ok_or(fail("truncated RLE+VLE values", base + 16))?;
            let (counts, _) = HuffmanEncoded::from_bytes(&bytes[16 + used..])
                .ok_or(fail("truncated RLE+VLE counts", base + 16 + used))?;
            if values.n_symbols != n_runs {
                return Err(fail("RLE+VLE run count mismatches value stream", base + 16));
            }
            Ok(CodesPayload::RleVle(RleVleEncoded {
                values,
                counts,
                n,
                n_runs,
            }))
        }
        _ => Err(fail("unknown workflow tag", 6)),
    }
}

/// Reads dims and dtype from a v1 header without validating the payload.
/// The scanner uses this to keep reporting the field's shape when only
/// the payload is damaged; `None` means the header itself is unusable.
pub(crate) fn peek_v1_header(bytes: &[u8]) -> Option<(Dims, Dtype)> {
    if bytes.len() < HEADER_BYTES
        || u32::from_le_bytes(bytes[0..4].try_into().unwrap()) != MAGIC
        || u16::from_le_bytes(bytes[4..6].try_into().unwrap()) != VERSION
    {
        return None;
    }
    let ez = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let ey = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let ex = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    let dims = match bytes[7] {
        1 => Dims::D1(ex),
        2 => Dims::D2 { ny: ey, nx: ex },
        3 => Dims::D3 {
            nz: ez,
            ny: ey,
            nx: ex,
        },
        _ => return None,
    };
    let dtype = match bytes[42] {
        0 => Dtype::F32,
        1 => Dtype::F64,
        _ => return None,
    };
    Some((dims, dtype))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compressor, Config, WorkflowMode};
    use cuszp_analysis::WorkflowChoice;

    fn archive_for(workflow: WorkflowMode) -> Archive {
        let data: Vec<f32> = (0..5000).map(|i| (i as f32 * 0.01).sin()).collect();
        let c = Compressor::new(Config {
            workflow,
            ..Config::default()
        });
        c.compress(&data, Dims::D1(5000)).unwrap()
    }

    #[test]
    fn serialization_round_trips_every_workflow() {
        for wf in [
            WorkflowChoice::Huffman,
            WorkflowChoice::Rle,
            WorkflowChoice::RleVle,
        ] {
            let a = archive_for(WorkflowMode::Force(wf));
            let bytes = a.to_bytes();
            let b = Archive::from_bytes(&bytes).unwrap();
            assert_eq!(a, b, "{}", wf.name());
            assert_eq!(bytes.len(), a.serialized_bytes(), "{}", wf.name());
        }
    }

    #[test]
    fn dims_survive_all_ranks() {
        let data: Vec<f32> = (0..5040).map(|i| (i as f32 * 0.02).cos()).collect();
        let c = Compressor::default();
        for dims in [
            Dims::D1(5040),
            Dims::D2 { ny: 60, nx: 84 },
            Dims::D3 {
                nz: 7,
                ny: 24,
                nx: 30,
            },
        ] {
            let a = c.compress(&data, dims).unwrap();
            let b = Archive::from_bytes(&a.to_bytes()).unwrap();
            assert_eq!(b.dims, dims);
        }
    }

    #[test]
    fn checksum_detects_every_byte_position() {
        let a = archive_for(WorkflowMode::Auto);
        let bytes = a.to_bytes();
        // Flip a byte somewhere in the payload region (sample a few).
        for off in [0usize, 7, 13] {
            let mut corrupt = bytes.clone();
            let idx = bytes.len() - 1 - off;
            corrupt[idx] ^= 0x01;
            assert!(
                Archive::from_bytes(&corrupt).is_err(),
                "flip at payload offset -{off} must be caught"
            );
        }
    }

    #[test]
    fn header_size_constant_matches_layout() {
        let a = archive_for(WorkflowMode::Force(WorkflowChoice::Huffman));
        let bytes = a.to_bytes();
        // payload_len field sits at offset HEADER_BYTES-16; verify it.
        let off = HEADER_BYTES - 16;
        let payload_len = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()) as usize;
        assert_eq!(HEADER_BYTES + payload_len, bytes.len());
    }
}
