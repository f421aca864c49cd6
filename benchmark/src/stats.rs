//! Order statistics for the reported figures.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, with the
//! sample count, so a "p99" of 100 samples (one sample: the slowest) is
//! never passed off as a tail.

/// Percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median; the mean of the middle two for an even count. `NaN` when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. `NaN` when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let s = sorted(samples);
    if s.is_empty() {
        return f64::NAN;
    }
    s[rank(s.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error from pushing an exact rank (p99.9
    // of 10 000 samples is 9990) up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond its rank, or `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n >= TAIL_MIN_BEYOND && n - rank(n, p) >= TAIL_MIN_BEYOND)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median, tail and count of one timing distribution, for the printed
/// report.
pub fn describe(samples: &[f64], unit: &str) -> String {
    let mut out = format!("median {:.3} {unit}", median(samples));
    if let Some(p) = tail_percentile(samples.len()) {
        out += &format!(", p{p} {:.3} {unit}", percentile(samples, p));
    }
    out + &format!(" (n={})", samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0], 50.0), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 0..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn describe_names_tail_and_count() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(
            describe(&v, "ms"),
            "median 100.500 ms, p95 190.000 ms (n=200)"
        );
        assert_eq!(describe(&[1.0, 2.0], "s"), "median 1.500 s (n=2)");
    }
}
