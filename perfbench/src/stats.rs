//! Order statistics over exact samples: percentiles, medians and the
//! tail percentile rule.

/// The percentiles a tail may be reported at, in tenths of a percent,
/// lowest first.
const TAIL_LADDER: [u32; 4] = [500, 900, 990, 999];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it out of `n`, or `None` when not even the median
/// does. A tail read from fewer samples is a single outlier, not a tail.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&q| n as u64 * u64::from(1000 - q) >= 10 * 1000)
        .map(|&q| f64::from(q) / 10.0)
}

/// The `p`-th percentile (0–100) of `values` by linear interpolation
/// between closest ranks; `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    if frac == 0.0 {
        return Some(sorted[lo]);
    }
    Some(sorted[lo] + (sorted[lo + 1] - sorted[lo]) * frac)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.9));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(percentile(&[], 50.0), None);
        // An unanswered request reads as an infinite latency.
        assert_eq!(median(&[1.0, f64::INFINITY]), f64::INFINITY);
        assert_eq!(median(&[1.0, f64::INFINITY, 2.0]), 2.0);
    }
}
