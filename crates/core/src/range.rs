//! Random-access range reads over archives.
//!
//! A [`RangeSpec`] names a sub-volume of the logical field — one
//! `start..end` interval per dimension, slowest axis first (the same
//! order as `-d` dims on the CLI). Because CSZ2 chunks are slabs along
//! the slowest axis, a range read only has to decode the chunks whose
//! slow interval intersects the request: the slow axis selects chunks,
//! the faster axes select rows/columns *within* each decoded slab.
//!
//! The mapping from range to chunk set reuses the deterministic chunk
//! plan (`cuszp_parallel::plan_chunk_spec`): the plan is a pure function
//! of shape and chunk target, so the set of intersecting chunks is
//! computed in O(1) per endpoint by inverting the balanced split, never
//! by materializing the plan.
//!
//! Validation is strict and typed: a spec with the wrong rank, an
//! inverted or empty axis, or an out-of-bounds end is rejected with
//! [`CuszpError::InvalidRange`] before any decoding starts — no panics,
//! no partial output.

use crate::chunked::ChunkedArchive;
use crate::engine::PipelineEngine;
use crate::error::CuszpError;
use cuszp_parallel::{plan_chunk_spec, plan_len, WorkerPool};
use cuszp_predictor::{Dims, ReconstructEngine, Scalar};
use std::ops::Range;

/// A sub-volume request: one `start..end` interval per dimension of the
/// field, slowest axis first (matching the `-d` dims order). Bounds are
/// element indices; `end` is exclusive. Construction never validates —
/// validation happens against a concrete field shape at decode time and
/// yields [`CuszpError::InvalidRange`], so an out-of-bounds spec is a
/// typed error, not a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeSpec {
    axes: Vec<Range<usize>>,
}

impl RangeSpec {
    /// A spec from per-axis intervals, slowest axis first.
    pub fn new(axes: Vec<Range<usize>>) -> Self {
        Self { axes }
    }

    /// The per-axis intervals, slowest axis first.
    pub fn axes(&self) -> &[Range<usize>] {
        &self.axes
    }

    /// Number of axes in the spec.
    pub fn rank(&self) -> usize {
        self.axes.len()
    }

    /// Elements the spec covers (0 when any axis is empty or inverted).
    pub fn len(&self) -> usize {
        self.axes
            .iter()
            .map(|r| r.end.saturating_sub(r.start))
            .product()
    }

    /// True when the spec covers no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parses the textual form used by the CLI: `start:end` per axis,
    /// axes joined by `x` — `10:20`, `0:1800x100:200`,
    /// `2:5x0:512x128:256`.
    pub fn parse(spec: &str) -> Result<Self, CuszpError> {
        let mut axes = Vec::new();
        for (axis, part) in spec.split(['x', 'X']).enumerate() {
            let Some((start, end)) = part.split_once(':') else {
                return Err(CuszpError::InvalidRange {
                    axis,
                    reason: format!("expected 'start:end', got '{part}'"),
                });
            };
            let parse = |s: &str| {
                s.trim()
                    .parse::<usize>()
                    .map_err(|_| CuszpError::InvalidRange {
                        axis,
                        reason: format!("'{s}' is not a valid index"),
                    })
            };
            axes.push(parse(start)?..parse(end)?);
        }
        if axes.is_empty() || axes.len() > 3 {
            return Err(CuszpError::InvalidRange {
                axis: 0,
                reason: format!("a range needs 1-3 axes, got {}", axes.len()),
            });
        }
        Ok(Self { axes })
    }
}

impl std::fmt::Display for RangeSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, r) in self.axes.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{}:{}", r.start, r.end)?;
        }
        Ok(())
    }
}

/// A [`RangeSpec`] validated against a concrete field shape and
/// normalized to the slow/middle/fast axis roles chunk slabs use.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedRange {
    /// Interval along the slowest axis (the chunking axis).
    pub slow: Range<usize>,
    /// Interval along the middle axis (`0..1` below rank 3).
    pub mid: Range<usize>,
    /// Interval along the fastest, contiguous axis (`0..1` for rank 1).
    pub fast: Range<usize>,
    /// Field extent of the middle axis.
    pub mid_extent: usize,
    /// Field extent of the fastest axis.
    pub fast_extent: usize,
}

impl ResolvedRange {
    /// Elements of the sub-volume per slow-axis unit.
    pub fn sub_elems_per_slow(&self) -> usize {
        self.mid.len() * self.fast.len()
    }

    /// Total elements in the sub-volume.
    pub fn len(&self) -> usize {
        self.slow.len() * self.sub_elems_per_slow()
    }

    /// Shape of the sub-volume, same rank as the source field.
    pub fn sub_dims(&self, dims: Dims) -> Dims {
        match dims {
            Dims::D1(_) => Dims::D1(self.slow.len()),
            Dims::D2 { .. } => Dims::D2 {
                ny: self.slow.len(),
                nx: self.fast.len(),
            },
            Dims::D3 { .. } => Dims::D3 {
                nz: self.slow.len(),
                ny: self.mid.len(),
                nx: self.fast.len(),
            },
        }
    }
}

/// Validates `spec` against `dims` and normalizes it to axis roles.
/// Every rejection is a typed [`CuszpError::InvalidRange`].
pub(crate) fn resolve(spec: &RangeSpec, dims: Dims) -> Result<ResolvedRange, CuszpError> {
    let rank = dims.rank();
    if spec.axes.len() != rank {
        return Err(CuszpError::InvalidRange {
            axis: 0,
            reason: format!(
                "spec has {} axes but the field is {rank}-dimensional",
                spec.axes.len()
            ),
        });
    }
    // Extents in rank order, slowest first (extents() pads with leading
    // 1s for lower ranks, so slice off the padding).
    let extents = &dims.extents()[3 - rank..];
    for (axis, (r, &extent)) in spec.axes.iter().zip(extents).enumerate() {
        if r.start > r.end {
            return Err(CuszpError::InvalidRange {
                axis,
                reason: format!("inverted: start {} > end {}", r.start, r.end),
            });
        }
        if r.start == r.end {
            return Err(CuszpError::InvalidRange {
                axis,
                reason: format!("empty: start == end == {}", r.start),
            });
        }
        if r.end > extent {
            return Err(CuszpError::InvalidRange {
                axis,
                reason: format!("out of bounds: end {} > extent {extent}", r.end),
            });
        }
    }
    let a = &spec.axes;
    Ok(match rank {
        1 => ResolvedRange {
            slow: a[0].clone(),
            mid: 0..1,
            fast: 0..1,
            mid_extent: 1,
            fast_extent: 1,
        },
        2 => ResolvedRange {
            slow: a[0].clone(),
            mid: 0..1,
            fast: a[1].clone(),
            mid_extent: 1,
            fast_extent: extents[1],
        },
        _ => ResolvedRange {
            slow: a[0].clone(),
            mid: a[1].clone(),
            fast: a[2].clone(),
            mid_extent: extents[1],
            fast_extent: extents[2],
        },
    })
}

/// The chunk index that contains slow-axis unit `s`, inverting the
/// balanced split of `plan_chunk_spec` in O(1).
fn chunk_containing(slow_units: usize, n_chunks: usize, s: usize) -> usize {
    // Chunk i covers [i*base + min(i, extra), ...) with width
    // base + (i < extra), where base >= 1 because n_chunks <= slow_units.
    let base = slow_units / n_chunks;
    let extra = slow_units % n_chunks;
    let wide = extra * (base + 1);
    if s < wide {
        s / (base + 1)
    } else {
        extra + (s - wide) / base
    }
}

/// The half-open range of chunk indices whose slabs intersect the
/// (validated, non-empty) slow interval.
pub(crate) fn chunk_span(extents: &[usize; 2], target: usize, slow: &Range<usize>) -> Range<usize> {
    let n = plan_len(extents, target);
    if n == 0 {
        return 0..0;
    }
    let first = chunk_containing(extents[0], n, slow.start);
    let last = chunk_containing(extents[0], n, slow.end - 1);
    first..last + 1
}

/// Copies the sub-rows of one decoded chunk slab into its (contiguous)
/// segment of the sub-volume. `chunk_slow` is the slab's global slow
/// interval; `out` must be exactly the overlap's sub-volume bytes.
pub(crate) fn gather_chunk<T: Copy>(
    chunk_data: &[T],
    chunk_slow: &Range<usize>,
    r: &ResolvedRange,
    out: &mut [T],
) {
    let a = chunk_slow.start.max(r.slow.start);
    let b = chunk_slow.end.min(r.slow.end);
    let eps = r.mid_extent * r.fast_extent;
    let width = r.fast.len();
    debug_assert_eq!(out.len(), (b - a) * r.sub_elems_per_slow());
    let mut dst = 0;
    for s in a..b {
        let row = (s - chunk_slow.start) * eps;
        for m in r.mid.clone() {
            let src = row + m * r.fast_extent + r.fast.start;
            out[dst..dst + width].copy_from_slice(&chunk_data[src..src + width]);
            dst += width;
        }
    }
}

impl ChunkedArchive {
    /// Decodes only the chunks intersecting `spec` and assembles the
    /// requested sub-volume as `T`, fanning the chunks across `pool`.
    pub fn decode_range<T: Scalar>(
        &self,
        engine: ReconstructEngine,
        spec: &RangeSpec,
        pool: &WorkerPool,
    ) -> Result<(Vec<T>, Dims), CuszpError> {
        self.dtype.check::<T>()?;
        self.validate_chunk_geometry()?;
        let r = resolve(spec, self.dims)?;
        let target = usize::try_from(self.chunk_target).unwrap_or(usize::MAX);
        let extents = [self.dims.slow_extent(), self.dims.elems_per_slow()];
        let span = chunk_span(&extents, target, &r.slow);
        let seps = r.sub_elems_per_slow();
        let mut out = vec![T::default(); r.len()];
        // Carve the sub-volume into one contiguous segment per
        // intersecting chunk: chunks tile the slow axis in order, so a
        // chunk's overlap rows are consecutive in the output.
        let mut parts: Vec<(usize, Range<usize>, &mut [T])> = Vec::with_capacity(span.len());
        let mut rest: &mut [T] = &mut out;
        for i in span {
            let slab = plan_chunk_spec(&extents, target, i).slow;
            let rows = slab.end.min(r.slow.end) - slab.start.max(r.slow.start);
            let (head, tail) = rest.split_at_mut(rows * seps);
            parts.push((i, slab, head));
            rest = tail;
        }
        // One engine and one slab scratch per worker: a full chunk is
        // decoded into the scratch, then only the requested sub-rows are
        // copied out.
        let results = pool.run_parts_with_state(
            parts,
            || (PipelineEngine::new(), Vec::<T>::new()),
            |_, (i, slab, part), (eng, scratch)| -> Result<(), CuszpError> {
                let n = self.chunks[i].dims.len();
                scratch.clear();
                scratch.resize(n, T::default());
                eng.decompress_into(&self.chunks[i], engine, &mut scratch[..n])?;
                gather_chunk(&scratch[..n], &slab, &r, part);
                Ok(())
            },
        );
        for res in results {
            res?;
        }
        Ok((out, r.sub_dims(self.dims)))
    }
}

/// Range decompression with caller-provided slab caching: `fetch(i)`
/// may return chunk `i`'s previously decoded slab, `store(i, slab)` is
/// called for every slab decoded fresh. This is the serving tier's
/// building block — a hot-slab cache keyed by archive hash and chunk
/// index makes repeated range reads skip the decoder entirely. Decoding
/// runs serially on `eng` (the caller's reusable engine); cache hits
/// cost only the gather copy.
pub fn decompress_range_with_fetch<T: Scalar>(
    arc: &ChunkedArchive,
    engine: ReconstructEngine,
    spec: &RangeSpec,
    eng: &mut PipelineEngine,
    fetch: &mut dyn FnMut(usize) -> Option<Vec<T>>,
    store: &mut dyn FnMut(usize, &[T]),
) -> Result<(Vec<T>, Dims), CuszpError> {
    arc.dtype.check::<T>()?;
    arc.validate_chunk_geometry()?;
    let r = resolve(spec, arc.dims)?;
    let target = usize::try_from(arc.chunk_target).unwrap_or(usize::MAX);
    let extents = [arc.dims.slow_extent(), arc.dims.elems_per_slow()];
    let span = chunk_span(&extents, target, &r.slow);
    let seps = r.sub_elems_per_slow();
    let mut out = vec![T::default(); r.len()];
    let mut dst = 0;
    for i in span {
        let slab = plan_chunk_spec(&extents, target, i).slow;
        let n = arc.chunks[i].dims.len();
        let rows = slab.end.min(r.slow.end) - slab.start.max(r.slow.start);
        let part = &mut out[dst..dst + rows * seps];
        dst += rows * seps;
        // A cached slab of the wrong length is stale garbage; decode
        // fresh rather than trusting it.
        match fetch(i).filter(|s| s.len() == n) {
            Some(slab_data) => gather_chunk(&slab_data, &slab, &r, part),
            None => {
                let mut fresh = vec![T::default(); n];
                eng.decompress_into(&arc.chunks[i], engine, &mut fresh)?;
                store(i, &fresh);
                gather_chunk(&fresh, &slab, &r, part);
            }
        }
    }
    Ok((out, r.sub_dims(arc.dims)))
}

/// Decodes the sub-volume named by `spec` from serialized archive bytes
/// (v1 or chunked) as `T`. Chunked containers decode only the
/// intersecting chunks; v1 archives are one checksummed unit, so the
/// whole field is decoded and sliced.
pub fn decompress_range<T: Scalar>(
    bytes: &[u8],
    spec: &RangeSpec,
) -> Result<(Vec<T>, Dims), CuszpError> {
    if crate::is_chunked_archive(bytes) {
        return ChunkedArchive::from_bytes(bytes)?.decode_range(
            ReconstructEngine::FinePartialSum,
            spec,
            &WorkerPool::with_default_workers(),
        );
    }
    let (data, dims) = crate::decompress(bytes)?;
    slice_field(&data, dims, spec)
}

/// Slices a fully decoded field to `spec` (the v1 fallback and the
/// reference the range tests compare against).
pub fn slice_field<T: Copy + Default>(
    data: &[T],
    dims: Dims,
    spec: &RangeSpec,
) -> Result<(Vec<T>, Dims), CuszpError> {
    let r = resolve(spec, dims)?;
    let mut out = vec![T::default(); r.len()];
    gather_chunk(data, &(0..dims.slow_extent()), &r, &mut out);
    Ok((out, r.sub_dims(dims)))
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init, clippy::reversed_empty_ranges)]
mod tests {
    use super::*;
    use cuszp_parallel::plan_chunks;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0:10", "0:1800x100:200", "2:5x0:512x128:256"] {
            assert_eq!(RangeSpec::parse(s).unwrap().to_string(), s);
        }
        assert!(matches!(
            RangeSpec::parse("10"),
            Err(CuszpError::InvalidRange { .. })
        ));
        assert!(matches!(
            RangeSpec::parse("a:b"),
            Err(CuszpError::InvalidRange { .. })
        ));
        assert!(matches!(
            RangeSpec::parse("0:1x0:1x0:1x0:1"),
            Err(CuszpError::InvalidRange { .. })
        ));
    }

    #[test]
    fn resolve_rejects_bad_specs_with_typed_errors() {
        let dims = Dims::D2 { ny: 10, nx: 20 };
        // Rank mismatch.
        let e = resolve(&RangeSpec::new(vec![0..5]), dims).unwrap_err();
        assert!(matches!(e, CuszpError::InvalidRange { axis: 0, .. }));
        // Inverted.
        let e = resolve(&RangeSpec::new(vec![5..2, 0..20]), dims).unwrap_err();
        assert!(matches!(e, CuszpError::InvalidRange { axis: 0, .. }));
        // Empty.
        let e = resolve(&RangeSpec::new(vec![0..10, 7..7]), dims).unwrap_err();
        assert!(matches!(e, CuszpError::InvalidRange { axis: 1, .. }));
        // Out of bounds.
        let e = resolve(&RangeSpec::new(vec![0..10, 0..21]), dims).unwrap_err();
        assert!(matches!(e, CuszpError::InvalidRange { axis: 1, .. }));
        // A valid spec resolves.
        let r = resolve(&RangeSpec::new(vec![2..4, 5..15]), dims).unwrap();
        assert_eq!(r.len(), 20);
        assert_eq!(r.sub_dims(dims), Dims::D2 { ny: 2, nx: 10 });
    }

    #[test]
    fn chunk_span_matches_the_materialized_plan() {
        // Sweep shapes (including degenerate single-unit and
        // smaller-than-one-slab fields) and check the O(1) inversion
        // against a brute-force scan over the real plan.
        for slow_units in [1usize, 2, 3, 7, 16, 100, 101] {
            for eps in [1usize, 3, 64] {
                for target in [1usize, eps, 4 * eps, 1000 * eps] {
                    let extents = [slow_units, eps];
                    let plan = plan_chunks(&extents, target);
                    for start in 0..slow_units {
                        for end in start + 1..=slow_units {
                            let got = chunk_span(&extents, target, &(start..end));
                            let want: Vec<usize> = plan
                                .chunks
                                .iter()
                                .filter(|c| c.slow.start < end && start < c.slow.end)
                                .map(|c| c.index)
                                .collect();
                            assert_eq!(
                                (got.start, got.end),
                                (want[0], want[want.len() - 1] + 1),
                                "slow_units {slow_units} eps {eps} target {target} range {start}..{end}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gather_extracts_the_right_elements() {
        // 3-D field 4x3x5, chunk covering slow rows 1..3.
        let dims = Dims::D3 {
            nz: 4,
            ny: 3,
            nx: 5,
        };
        let field: Vec<i32> = (0..dims.len() as i32).collect();
        let chunk: Vec<i32> = field[15..45].to_vec();
        let spec = RangeSpec::new(vec![1..3, 1..3, 2..4]);
        let r = resolve(&spec, dims).unwrap();
        let mut out = vec![0i32; r.len()];
        gather_chunk(&chunk, &(1..3), &r, &mut out);
        let expect: Vec<i32> = (1..3)
            .flat_map(|z| (1..3).flat_map(move |y| (2..4).map(move |x| z * 15 + y * 5 + x)))
            .collect();
        assert_eq!(out, expect);
    }
}
