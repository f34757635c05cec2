//! Order statistics for round timings.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0..=100) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // The epsilon keeps levels like 99.0 (not exact in binary) from
    // rounding up to the next rank.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The highest percentile the sample supports: the largest level, in
/// tenths of a percent, whose nearest-rank value leaves at least
/// [`TAIL_SAMPLES`] samples beyond it. Returns `(level, value, count)`, or
/// `None` when fewer than `TAIL_SAMPLES + 1` samples exist.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64, usize)> {
    let n = samples.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    // Nearest rank k leaves n - k samples beyond it; the largest admissible
    // rank is n - TAIL_SAMPLES, and the largest level mapping to a rank no
    // higher than that is floor(1000 * k / n) tenths.
    let max_rank = n - TAIL_SAMPLES;
    let tenths = (1000 * max_rank) / n;
    let level = tenths as f64 / 10.0;
    percentile(samples, level).map(|v| (level, v, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled distinct values 1..=n.
        (0..n).map(|i| ((i * 37) % n + 1) as f64).collect()
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        for n in [11, 50, 100, 101, 137, 250, 1000, 1234] {
            let samples = ramp(n);
            let (level, value, count) = tail_percentile(&samples).unwrap();
            assert_eq!(count, n);
            let beyond = samples.iter().filter(|&&s| s > value).count();
            assert!(
                beyond >= TAIL_SAMPLES,
                "n={n}: only {beyond} beyond p{level}"
            );
            // The next tenth of a percent up would leave fewer than ten.
            let next = percentile(&samples, level + 0.1).unwrap();
            let beyond_next = samples.iter().filter(|&&s| s > next).count();
            assert!(
                beyond_next < TAIL_SAMPLES || next == value,
                "n={n}: p{level} is not the highest supported percentile"
            );
        }
    }

    #[test]
    fn hundred_samples_support_p90_exactly() {
        let (level, value, count) = tail_percentile(&ramp(100)).unwrap();
        assert_eq!((level, value, count), (90.0, 90.0, 100));
    }

    #[test]
    fn too_few_samples_support_no_tail() {
        assert!(tail_percentile(&ramp(10)).is_none());
        assert!(tail_percentile(&[]).is_none());
    }

    #[test]
    fn median_and_percentile_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(percentile(&ramp(100), 50.0), Some(50.0));
        assert_eq!(percentile(&ramp(100), 100.0), Some(100.0));
        assert_eq!(median(&[]), None);
    }
}
