//! Order statistics for latency samples.

/// Samples a tail percentile must leave strictly beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile of ascending `sorted` samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// How many samples lie strictly beyond that rank.
    pub beyond: usize,
}

/// The nearest-rank `q`-percentile (`0 < q <= 1`) of ascending samples:
/// the smallest sample with at least `q` of all samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let rank = rank(sorted.len(), q);
    Some(Percentile {
        value: sorted[rank],
        beyond: sorted.len() - rank - 1,
    })
}

/// Zero-based nearest rank of the `q`-percentile among `n >= 1` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The highest of `candidates` (ascending quantiles) whose nearest-rank
/// percentile leaves at least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    if n == 0 {
        return None;
    }
    candidates
        .iter()
        .rev()
        .copied()
        .find(|&q| n - rank(n, q) > MIN_BEYOND)
}

/// The median of unsorted samples (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.5).unwrap().value, 50.0);
        assert_eq!(percentile(&v, 0.9).unwrap().value, 90.0);
        assert_eq!(percentile(&v, 1.0).unwrap().value, 100.0);
        assert_eq!(percentile(&[7.0], 0.9).unwrap().value, 7.0);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        // 100 samples: rank 90 leaves exactly ten beyond.
        let p = percentile(&ramp(100), 0.9).unwrap();
        assert_eq!(p.beyond, 10);
        assert!(p.beyond >= MIN_BEYOND);
        // 99 samples: rank ceil(89.1) = 90 leaves nine.
        let p = percentile(&ramp(99), 0.9).unwrap();
        assert_eq!(p.beyond, 9);
        assert!(p.beyond < MIN_BEYOND);
    }

    #[test]
    fn highest_supported_percentile_follows_sample_count() {
        let ladder = [0.5, 0.9, 0.95, 0.99];
        // ~350 standing ops: p99 leaves 3, p95 leaves 17.
        assert_eq!(highest_supported(350, &ladder), Some(0.95));
        // ~850 cold ops: p99 leaves 8.
        assert_eq!(highest_supported(850, &ladder), Some(0.95));
        assert_eq!(highest_supported(1000, &ladder), Some(0.99));
        assert_eq!(highest_supported(120, &ladder), Some(0.9));
        assert_eq!(highest_supported(25, &ladder), Some(0.5));
        assert_eq!(highest_supported(15, &ladder), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
