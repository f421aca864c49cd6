//! A fixed reference kernel that gauges the host's current speed, so the
//! codec throughputs can be reported at a reference speed.
//!
//! The benchmark runs on a few cores of a shared host. Other tenants
//! change how fast the same instructions run, for minutes at a time and
//! by up to half: cache and memory contention slow streaming passes, and
//! clock changes slow dependent arithmetic. The codec loop times this
//! kernel before every rep and scales the rep's throughputs by how much
//! slower than its reference time the kernel ran. The kernel is the
//! benchmark's own code and calls nothing in the program, so a change to
//! the program moves a scaled throughput by the same share as the
//! wall-clock one.
//!
//! The kernel has two parts, because the codec's stages slow down
//! differently: streaming passes follow the streaming part, and the
//! Huffman coder's serial bit loops follow the dependent chain. Each
//! direction weighs the two parts by its stages' shares in the CPU Table
//! VII (`README.md`): Huffman encoding is about a fifth of compression,
//! and Huffman decoding about two thirds of decompression, the rest
//! being streaming passes.

use std::hint::black_box;
use std::time::Instant;

/// Times of the two parts on the host the bounds were set on (2 vCPUs
/// of a shared 2.1 GHz Xeon, medians), so scaled throughputs read close
/// to wall-clock ones there.
pub const REFERENCE_STREAM_S: f64 = 0.010;
/// See [`REFERENCE_STREAM_S`].
pub const REFERENCE_CHAIN_S: f64 = 0.0025;

/// Steps of the dependent multiply chain.
const CHAIN_STEPS: u64 = 1 << 20;

/// One timed pass of the reference kernel.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Seconds of the streaming part.
    pub stream_s: f64,
    /// Seconds of the dependent chain.
    pub chain_s: f64,
}

/// Share of compression time in streaming passes; the rest is Huffman
/// encoding and the codebook.
pub const COMPRESS_STREAM_SHARE: f64 = 0.8;
/// Share of decompression time in streaming passes (fuse, reconstruct,
/// dequantize); the rest is Huffman decoding.
pub const DECOMPRESS_STREAM_SHARE: f64 = 0.3;

impl Pass {
    /// How much slower than at the reference times the host ran work
    /// that spends `stream_share` of its time streaming and the rest in
    /// dependent arithmetic.
    pub fn slowdown(&self, stream_share: f64) -> f64 {
        stream_share * self.stream_s / REFERENCE_STREAM_S
            + (1.0 - stream_share) * self.chain_s / REFERENCE_CHAIN_S
    }
}

/// Times one pass: a streaming delta, quantize and histogram pass over
/// `samples`, then a dependent multiply chain. The codec loop passes its
/// first field (8 MiB at Small scale), so the pass streams as much as a
/// field compress does and adds nothing to the peak resident set.
pub fn pass(samples: &[f32]) -> Pass {
    let t = Instant::now();
    let mut hist = [0u32; 1024];
    let mut prev = 0.0f32;
    for (i, &v) in samples.iter().enumerate() {
        let q = ((v - prev) * 1e3).round() as i32 as usize;
        prev = v;
        // Mixing in the index spreads runs of equal codes over the bins,
        // so the time does not depend on how smooth the field is.
        hist[(q ^ i) & 1023] += 1;
    }
    black_box(hist);
    let stream_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..CHAIN_STEPS {
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 32;
    }
    black_box(x);
    Pass {
        stream_s,
        chain_s: t.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_parts_take_measurable_time() {
        let p = pass(&vec![0.5; 1 << 16]);
        assert!(p.stream_s > 0.0 && p.chain_s > 0.0);
        let at_reference = Pass {
            stream_s: REFERENCE_STREAM_S,
            chain_s: REFERENCE_CHAIN_S,
        };
        assert!((at_reference.slowdown(COMPRESS_STREAM_SHARE) - 1.0).abs() < 1e-12);
        assert!(p.slowdown(DECOMPRESS_STREAM_SHARE).is_finite());
    }
}
