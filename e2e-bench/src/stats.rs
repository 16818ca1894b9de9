//! Order statistics over span durations and set-up times.

/// The fewest samples that must lie beyond a reported rank.  A percentile
/// resting on fewer is one or two outliers, not a property of the system.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`q` in `(0, 1]`).
///
/// Returns `None` when fewer than [`MIN_BEYOND`] samples lie beyond the
/// rank, so p50 needs 20 samples and p90 needs 100.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    // Nearest rank, 1-based: the smallest k with k/n >= q.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a non-empty sample set (mean of the middle pair for an even
/// count).  Used for the handful of set-up repetitions, where the
/// [`percentile`] rule does not apply.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_rank_with_fewer_than_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples is rank 90, with only 9 beyond it.
        assert_eq!(percentile(&samples, 0.9), None);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        // p50 needs 20 samples: 19 leave rank 10 with 9 beyond.
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=200).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 0.9), Some(180.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
