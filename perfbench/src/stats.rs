//! Order statistics shared by the end-to-end and traced runs.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it, i.e. `sorted[ceil(p / 100 * n) - 1]`.
/// `p` is clamped to `(0, 100]`; `0.0` for an empty slice.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_stated_sample() {
        // 1000 samples 1..=1000: p50 is the 500th, p99 the 990th, so ten
        // samples lie beyond the p99 value.
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 50.0), 500.0);
        assert_eq!(nearest_rank(&samples, 99.0), 990.0);
        assert_eq!(samples.iter().filter(|&&s| s > 990.0).count(), 10);
        assert_eq!(nearest_rank(&samples, 100.0), 1000.0);
        assert_eq!(nearest_rank(&samples, 0.0), 1.0);
        // With 7 samples, p50 is rank ceil(3.5) = 4.
        let small = [7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&small, 50.0), 4.0);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
