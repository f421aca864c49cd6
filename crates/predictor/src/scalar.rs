//! Scalar abstraction over `f32`/`f64` fields.
//!
//! The paper's pipeline is identical for single and double precision —
//! only the prequantization boundary touches the float type, and the
//! attainable Huffman-cap ratio doubles (64× for doubles). Everything
//! between prequant and dequant is exact `i64` arithmetic either way.

/// A floating-point element type the compressor accepts.
pub trait Scalar: Copy + Default + Send + Sync + PartialOrd + std::fmt::Debug + 'static {
    /// Size of one element in bytes (4 or 8).
    const BYTES: usize;
    /// Widens to `f64` (exact for both supported types).
    fn to_f64(self) -> f64;
    /// Rounds from `f64` into this type.
    fn from_f64(v: f64) -> Self;
    /// True for normal/subnormal/zero values.
    fn is_finite_scalar(self) -> bool;
    /// The field's little-endian bytes (the raw-file and wire layout).
    fn le_bytes(data: &[Self]) -> Vec<u8>;
    /// Reads one element from exactly `BYTES` little-endian bytes.
    fn read_le(bytes: &[u8]) -> Self;
}

impl Scalar for f32 {
    const BYTES: usize = 4;

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline(always)]
    fn is_finite_scalar(self) -> bool {
        self.is_finite()
    }

    fn le_bytes(data: &[Self]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() * 4);
        for x in data {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    #[inline(always)]
    fn read_le(bytes: &[u8]) -> Self {
        f32::from_le_bytes(bytes.try_into().expect("4 bytes"))
    }
}

impl Scalar for f64 {
    const BYTES: usize = 8;

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline(always)]
    fn is_finite_scalar(self) -> bool {
        self.is_finite()
    }

    fn le_bytes(data: &[Self]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() * 8);
        for x in data {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    #[inline(always)]
    fn read_le(bytes: &[u8]) -> Self {
        f64::from_le_bytes(bytes.try_into().expect("8 bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(<f32 as Scalar>::BYTES, 4);
        assert_eq!(<f64 as Scalar>::BYTES, 8);
    }

    #[test]
    fn conversions_round_trip_exactly_for_f64() {
        let v = 1.234_567_890_123_456_7_f64;
        assert_eq!(f64::from_f64(v.to_f64()), v);
    }

    #[test]
    fn little_endian_round_trip() {
        let v = [1.5f32, -0.0, f32::MAX];
        let bytes = f32::le_bytes(&v);
        assert_eq!(bytes.len(), 12);
        let back: Vec<f32> = bytes.chunks_exact(4).map(f32::read_le).collect();
        assert_eq!(back, v);
        assert_eq!(f64::le_bytes(&[2.0]), 2.0f64.to_le_bytes());
        assert_eq!(f64::read_le(&2.0f64.to_le_bytes()), 2.0);
    }

    #[test]
    fn finite_checks() {
        assert!(1.0f32.is_finite_scalar());
        assert!(!f32::NAN.is_finite_scalar());
        assert!(!f64::INFINITY.is_finite_scalar());
    }
}
