//! Error type for the compression pipeline.
//!
//! Parse failures carry structured context ([`ParseFault`]): the byte
//! offset the parser was looking at, the section of the layout it was
//! parsing, and — inside multi-chunk containers — the chunk index. The
//! context is what makes corruption actionable from the shell (`cuszp
//! fsck`) instead of a bare "malformed archive".

/// Region of the serialized layout a parse failure points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchiveSection {
    /// The fixed v1 archive header (magic through checksum).
    Header,
    /// The outlier index/value arrays of a v1 payload.
    OutlierSection,
    /// The entropy-coded codes section of a v1 payload.
    CodesSection,
    /// The checksummed payload region as a whole.
    Payload,
    /// A container header (CSZ2 chunked / CSSN snapshot).
    ContainerHeader,
    /// The per-chunk length table of a container.
    LengthTable,
    /// The body of one chunk/block inside a container.
    ChunkBody,
    /// Bytes after the declared end of the last chunk.
    Trailer,
    /// The Reed–Solomon parity section appended after the chunk region.
    ParitySection,
}

impl ArchiveSection {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ArchiveSection::Header => "header",
            ArchiveSection::OutlierSection => "outlier section",
            ArchiveSection::CodesSection => "codes section",
            ArchiveSection::Payload => "payload",
            ArchiveSection::ContainerHeader => "container header",
            ArchiveSection::LengthTable => "chunk length table",
            ArchiveSection::ChunkBody => "chunk body",
            ArchiveSection::Trailer => "trailer",
            ArchiveSection::ParitySection => "parity section",
        }
    }
}

/// Structured context for a malformed-archive failure: what was wrong,
/// where in the layout, and (inside containers) which chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFault {
    /// What the parser found wrong.
    pub what: &'static str,
    /// The layout section being parsed when the failure surfaced.
    pub section: ArchiveSection,
    /// Byte offset into the buffer handed to the outermost parser. Chunk
    /// faults inside containers are rebased to container coordinates.
    pub offset: usize,
    /// Chunk/block index inside a multi-chunk container, if any.
    pub chunk: Option<usize>,
}

impl std::fmt::Display for ParseFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{} @ byte {}",
            self.what,
            self.section.name(),
            self.offset
        )?;
        if let Some(c) = self.chunk {
            write!(f, ", chunk {c}")?;
        }
        write!(f, "]")
    }
}

/// Everything that can go wrong in compression or decompression.
#[derive(Debug, Clone, PartialEq)]
pub enum CuszpError {
    /// Data length does not match the declared dimensions.
    DimsMismatch {
        /// Elements supplied.
        data: usize,
        /// Elements implied by the dimensions.
        dims: usize,
    },
    /// Input contains NaN or infinity (prequantization is undefined).
    NonFiniteInput,
    /// The resolved absolute error bound is not positive and finite.
    InvalidErrorBound(f64),
    /// Archive bytes are truncated or structurally invalid; the fault
    /// records section, byte offset, and chunk index.
    MalformedArchive(ParseFault),
    /// Archive checksum mismatch (corruption in transit/storage).
    ChecksumMismatch {
        /// Stored checksum.
        expected: u64,
        /// Recomputed checksum.
        actual: u64,
        /// Byte offset where the checksummed region starts, in the
        /// outermost buffer's coordinates (chunk faults are rebased like
        /// [`ParseFault::offset`]).
        offset: usize,
        /// Chunk index inside a multi-chunk container, if any.
        chunk: Option<usize>,
    },
    /// A parity configuration the Reed–Solomon codec cannot realise.
    InvalidParityConfig(String),
    /// Archive was produced by an unsupported format version.
    UnsupportedVersion(u16),
    /// Archive holds a different element type than the decompression
    /// entry point requested (`f32` vs `f64`).
    DtypeMismatch {
        /// Dtype stored in the archive ("f32"/"f64").
        stored: &'static str,
        /// Dtype the caller asked for.
        requested: &'static str,
    },
    /// A range request that does not describe a valid sub-volume of the
    /// field it was applied to (wrong rank, inverted or empty axis,
    /// out-of-bounds end).
    InvalidRange {
        /// Axis the violation was found on, slowest first (0-based).
        axis: usize,
        /// Why the spec was rejected.
        reason: String,
    },
}

impl CuszpError {
    /// A malformed-archive error with structured context.
    pub fn malformed(what: &'static str, section: ArchiveSection, offset: usize) -> Self {
        CuszpError::MalformedArchive(ParseFault {
            what,
            section,
            offset,
            chunk: None,
        })
    }

    /// A checksum mismatch outside any container; `offset` is where the
    /// checksummed region starts in the parsed buffer.
    pub fn checksum(expected: u64, actual: u64, offset: usize) -> Self {
        CuszpError::ChecksumMismatch {
            expected,
            actual,
            offset,
            chunk: None,
        }
    }

    /// Rebases a chunk-relative parse error into container coordinates:
    /// offsets shift by the chunk's base offset and the chunk index is
    /// attached. Non-parse errors pass through unchanged.
    pub fn in_chunk(self, chunk: usize, base: usize) -> Self {
        match self {
            CuszpError::MalformedArchive(fault) => CuszpError::MalformedArchive(ParseFault {
                offset: fault.offset + base,
                chunk: Some(chunk),
                ..fault
            }),
            CuszpError::ChecksumMismatch {
                expected,
                actual,
                offset,
                ..
            } => CuszpError::ChecksumMismatch {
                expected,
                actual,
                offset: offset + base,
                chunk: Some(chunk),
            },
            other => other,
        }
    }

    /// The structured parse fault, when this is a malformed-archive error.
    pub fn fault(&self) -> Option<&ParseFault> {
        match self {
            CuszpError::MalformedArchive(f) => Some(f),
            _ => None,
        }
    }
}

impl std::fmt::Display for CuszpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CuszpError::DimsMismatch { data, dims } => {
                write!(f, "data has {data} elements but dims declare {dims}")
            }
            CuszpError::NonFiniteInput => write!(f, "input contains NaN or infinity"),
            CuszpError::InvalidErrorBound(eb) => {
                write!(f, "error bound must be positive and finite, got {eb}")
            }
            CuszpError::MalformedArchive(fault) => write!(f, "malformed archive: {fault}"),
            CuszpError::ChecksumMismatch {
                expected,
                actual,
                offset,
                chunk,
            } => {
                write!(
                    f,
                    "checksum mismatch: stored {expected:#x}, computed {actual:#x} [payload @ byte {offset}"
                )?;
                if let Some(c) = chunk {
                    write!(f, ", chunk {c}")?;
                }
                write!(f, "]")
            }
            CuszpError::InvalidParityConfig(why) => {
                write!(f, "invalid parity configuration: {why}")
            }
            CuszpError::UnsupportedVersion(v) => write!(f, "unsupported archive version {v}"),
            CuszpError::DtypeMismatch { stored, requested } => {
                write!(
                    f,
                    "archive holds {stored} data but {requested} was requested"
                )
            }
            CuszpError::InvalidRange { axis, reason } => {
                write!(f, "invalid range on axis {axis}: {reason}")
            }
        }
    }
}

impl std::error::Error for CuszpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CuszpError::DimsMismatch { data: 5, dims: 6 };
        assert!(e.to_string().contains('5') && e.to_string().contains('6'));
        assert!(CuszpError::NonFiniteInput.to_string().contains("NaN"));
        assert!(CuszpError::InvalidErrorBound(-1.0)
            .to_string()
            .contains("-1"));
        let e = CuszpError::malformed("truncated header", ArchiveSection::Header, 17);
        assert!(e.to_string().contains("truncated"));
        let e = CuszpError::ChecksumMismatch {
            expected: 0xAB,
            actual: 0xCD,
            offset: 0,
            chunk: None,
        };
        assert!(e.to_string().contains("ab") || e.to_string().contains("0xab"));
        assert!(CuszpError::UnsupportedVersion(9).to_string().contains('9'));
    }

    #[test]
    fn parse_faults_carry_section_offset_and_chunk() {
        let e = CuszpError::malformed("truncated payload", ArchiveSection::Payload, 96);
        let msg = e.to_string();
        assert!(msg.contains("payload"), "{msg}");
        assert!(msg.contains("96"), "{msg}");

        let rebased = e.in_chunk(3, 1000);
        let fault = rebased.fault().unwrap();
        assert_eq!(fault.offset, 1096);
        assert_eq!(fault.chunk, Some(3));
        let msg = rebased.to_string();
        assert!(msg.contains("chunk 3"), "{msg}");
        assert!(msg.contains("1096"), "{msg}");
    }

    #[test]
    fn checksum_rebasing_attaches_chunk() {
        let e = CuszpError::checksum(1, 2, 96).in_chunk(7, 64);
        assert!(matches!(
            e,
            CuszpError::ChecksumMismatch {
                offset: 160,
                chunk: Some(7),
                ..
            }
        ));
        assert!(e.to_string().contains("chunk 7"));
        assert!(e.to_string().contains("160"));
    }

    #[test]
    fn non_parse_errors_pass_through_in_chunk() {
        let e = CuszpError::NonFiniteInput.in_chunk(0, 0);
        assert_eq!(e, CuszpError::NonFiniteInput);
    }
}
