//! Quality and performance metrics for error-bounded lossy compression.
//!
//! Provides the fidelity statistics the SZ/cuSZ papers report — PSNR,
//! NRMSE, maximum absolute/relative error, value range — plus
//! compression-ratio accounting and GB/s throughput meters used by every
//! benchmark table in the reproduction, plus the thread-safe service
//! instrumentation ([`Counter`], [`LatencyHistogram`]) behind
//! `cuszp-server`'s live stats.

mod error_stats;
mod histogram;
mod throughput;

pub use error_stats::{verify_error_bound, verify_error_bound_f64, ErrorStats};
pub use histogram::{
    bucket_index, bucket_lower_us, bucket_upper_us, Counter, LatencyHistogram, LatencySummary,
    N_LATENCY_BUCKETS,
};
pub use throughput::{gbps, KernelTimer, ThroughputReport};

/// Compression ratio: original bytes over compressed bytes.
///
/// Returns `f64::INFINITY` when `compressed == 0` and the original is
/// non-empty (degenerate but possible for the all-zeros RLE fast path).
pub fn compression_ratio(original_bytes: usize, compressed_bytes: usize) -> f64 {
    if compressed_bytes == 0 {
        if original_bytes == 0 {
            return 1.0;
        }
        return f64::INFINITY;
    }
    original_bytes as f64 / compressed_bytes as f64
}

/// FNV-1a 64-bit hash — the workspace's checksum of record. Archive
/// payloads, parity shards, CSRP frames, cluster placement and the shard
/// store all hash with this one function, because checksums cross those
/// boundaries.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bit rate in output bits per input element.
pub fn bit_rate(elements: usize, compressed_bytes: usize) -> f64 {
    if elements == 0 {
        return 0.0;
    }
    compressed_bytes as f64 * 8.0 / elements as f64
}

/// Value range (max − min) of a field; the denominator of *relative*
/// error bounds ("relative to value range" in the paper).
pub fn value_range(data: &[f32]) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &x in data {
        if x < lo {
            lo = x;
        }
        if x > hi {
            hi = x;
        }
    }
    hi - lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_basic() {
        assert_eq!(compression_ratio(100, 10), 10.0);
        assert_eq!(compression_ratio(0, 0), 1.0);
        assert!(compression_ratio(10, 0).is_infinite());
    }

    #[test]
    fn fnv1a_is_the_standard_64_bit_variant() {
        // FNV-1a("") = offset basis; FNV-1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn bit_rate_basic() {
        // 4-byte floats compressed 32:1 -> 1 bit per element.
        assert_eq!(bit_rate(32, 4), 1.0);
        assert_eq!(bit_rate(0, 100), 0.0);
    }

    #[test]
    fn range_basic() {
        assert_eq!(value_range(&[1.0, -3.0, 5.0]), 8.0);
        assert_eq!(value_range(&[]), 0.0);
        assert_eq!(value_range(&[2.5]), 0.0);
    }
}
