//! Order statistics over rep timings, and the report digest.

/// The median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller times at least one rep.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, as `(percentile, index into the sorted samples)`;
/// `None` below 21 samples, where not even the median has.
pub fn tail_percentile(n: usize) -> Option<(f64, usize)> {
    if n < 21 {
        return None;
    }
    let index = n - 11;
    Some((100.0 * (index + 1) as f64 / n as f64, index))
}

/// FNV-1a 64 over a rendered report: the correctness oracle compares
/// digests, not strings, so set-up keeps eight bytes instead of a report.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 10.0);
        assert_eq!(quantile(&v, 0.95), 19.0);
        assert_eq!(quantile(&v, 1.0), 20.0);
        assert_eq!(quantile(&[5.0], 0.95), 5.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(20), None);
        // 21 samples: index 10 (the median) has exactly ten beyond it.
        let (p, i) = tail_percentile(21).unwrap();
        assert_eq!(i, 10);
        assert!((p - 100.0 * 11.0 / 21.0).abs() < 1e-9);
        // 1000 samples: p99 has ten beyond it.
        let (p, i) = tail_percentile(1000).unwrap();
        assert_eq!((i, 1000 - 1 - i), (989, 10));
        assert!((p - 99.0).abs() < 1e-9);
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        // Pinned FNV-1a 64 vectors: the digest must never drift between
        // builds, or a stored oracle would stop matching.
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(digest("Table 3"), digest("Table 4"));
    }
}
