//! Order statistics for the benchmark's reports.
//!
//! Percentiles use the nearest-rank rule: the p-th percentile of `n`
//! sorted samples is the sample at rank `ceil(p·n)`. A percentile is
//! only reported when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! p99 needs at least 1 010 samples.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (in `0.0..=1.0`) among `n`
/// samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples lying beyond the nearest-rank `p`-th percentile of `n` samples.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The nearest-rank `p`-th percentile of `sorted` (ascending), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() || beyond(sorted.len(), p) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measured values"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The lower median of `values`: the middle element of an odd count,
/// the lower of the middle two of an even one.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn lower_median(values: &[u64]) -> u64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_unstable();
    v[(v.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1 009 samples: rank ceil(998.91) = 999, only 10 beyond. Supported.
        let s: Vec<u64> = (1..=1_009).collect();
        assert_eq!(beyond(s.len(), 0.99), 10);
        assert_eq!(percentile(&s, 0.99), Some(999));
        // 1 000 samples: rank 990, exactly 10 beyond. Supported.
        let s: Vec<u64> = (1..=1_000).collect();
        assert_eq!(percentile(&s, 0.99), Some(990));
        // 999 samples: rank ceil(989.01) = 990, only 9 beyond. Refused.
        let s: Vec<u64> = (1..=999).collect();
        assert_eq!(beyond(s.len(), 0.99), 9);
        assert_eq!(percentile(&s, 0.99), None);
    }

    #[test]
    fn median_percentile_is_the_middle_rank() {
        let s: Vec<u64> = (1..=101).collect();
        assert_eq!(percentile(&s, 0.5), Some(51));
        assert_eq!(percentile(&[], 0.5), None);
        // Too few samples for even the median to have ten beyond it.
        assert_eq!(percentile(&[1, 2, 3], 0.5), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(lower_median(&[4, 1, 3, 2]), 2);
        assert_eq!(lower_median(&[u64::MAX, 1, 3]), 3);
    }
}
