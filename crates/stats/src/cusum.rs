//! Cumulative Sum (CUSUM) change-point statistics (§5.2.1).
//!
//! FBDetect's change-point detector applies CUSUM and EM iteratively to find
//! the point with the maximum likelihood of separating two different means.
//! This module provides the CUSUM half: the cumulative deviation-from-mean
//! series, the location of its extremum (the classic CUSUM change-point
//! estimate), and a one-sided tabular CUSUM for drift detection.

use crate::error::{ensure_finite, ensure_len};
use crate::prefix::PrefixStats;
use crate::Result;

/// Result of a CUSUM scan over a time series.
#[derive(Debug, Clone, PartialEq)]
pub struct CusumResult {
    /// Index of the most likely change point (the extremum of |S_i|).
    ///
    /// The change is interpreted as occurring *after* this index: samples
    /// `0..=index` form the first segment and `index+1..` the second.
    pub index: usize,
    /// Magnitude of the CUSUM extremum, `max_i |S_i|`.
    pub magnitude: f64,
    /// Difference of segment means, `mean(after) - mean(before)`.
    pub mean_shift: f64,
}

/// Cumulative deviation-from-mean series `S_i = Σ_{j<=i} (x_j - x̄)`.
pub fn cusum_series(data: &[f64]) -> Result<Vec<f64>> {
    ensure_len(data, 1)?;
    ensure_finite(data)?;
    let m = data.iter().sum::<f64>() / data.len() as f64;
    let mut acc = 0.0;
    Ok(data
        .iter()
        .map(|v| {
            acc += v - m;
            acc
        })
        .collect())
}

/// Locates the most likely single change point via the CUSUM extremum.
///
/// Returns an error for series shorter than 4 samples (both segments need at
/// least two points for a meaningful mean comparison).
///
/// # Examples
///
/// ```
/// let mut data = vec![0.0; 50];
/// data.extend(vec![1.0; 50]);
/// let r = fbd_stats::cusum::detect_change_point(&data).unwrap();
/// assert_eq!(r.index, 49);
/// assert!((r.mean_shift - 1.0).abs() < 1e-12);
/// ```
pub fn detect_change_point(data: &[f64]) -> Result<CusumResult> {
    ensure_len(data, 4)?;
    ensure_finite(data)?;
    Ok(change_point_from_prefix(&PrefixStats::new(data)))
}

/// CUSUM extremum search over precomputed [`PrefixStats`].
///
/// The centered prefix sums *are* the CUSUM series, so callers that already
/// paid the O(n) prefix pass (e.g. [`crate::em::fit_two_segment`]) locate
/// the extremum and both segment means without touching the raw data again.
///
/// The statistics must cover at least 2 samples.
pub fn change_point_from_prefix(ps: &PrefixStats) -> CusumResult {
    let n = ps.len();
    // Exclude the final point (S_{n-1} = 0 by construction) and scan the
    // rest so both segments are non-empty.
    let mut best_idx = 0;
    let mut best_mag = f64::NEG_INFINITY;
    for i in 0..n - 1 {
        let s = ps.cusum_at(i + 1);
        if s.abs() > best_mag {
            best_mag = s.abs();
            best_idx = i;
        }
    }
    CusumResult {
        index: best_idx,
        magnitude: best_mag,
        mean_shift: ps.segment_mean(best_idx + 1, n) - ps.segment_mean(0, best_idx + 1),
    }
}

/// One-sided tabular CUSUM for detecting upward drift.
///
/// `target` is the in-control mean, `slack` the allowance (often `k·σ/2`),
/// and `threshold` the decision interval. Returns the first index where the
/// upper CUSUM exceeds the threshold, or `None`.
pub fn tabular_cusum_upper(
    data: &[f64],
    target: f64,
    slack: f64,
    threshold: f64,
) -> Result<Option<usize>> {
    ensure_len(data, 1)?;
    ensure_finite(data)?;
    let mut c_plus: f64 = 0.0;
    for (i, &x) in data.iter().enumerate() {
        c_plus = (c_plus + x - target - slack).max(0.0);
        if c_plus > threshold {
            return Ok(Some(i));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cusum_series_ends_at_zero() {
        let data = [1.0, 3.0, 2.0, 4.0, 5.0];
        let s = cusum_series(&data).unwrap();
        assert!(s.last().unwrap().abs() < 1e-12);
        assert_eq!(s.len(), data.len());
    }

    #[test]
    fn detects_obvious_step() {
        let mut data = vec![10.0; 30];
        data.extend(vec![12.0; 30]);
        let r = detect_change_point(&data).unwrap();
        assert_eq!(r.index, 29);
        assert!((r.mean_shift - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_downward_step() {
        let mut data = vec![5.0; 20];
        data.extend(vec![3.0; 20]);
        let r = detect_change_point(&data).unwrap();
        assert_eq!(r.index, 19);
        assert!((r.mean_shift + 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_step_in_noise() {
        // Deterministic pseudo-noise around a 0.5 step.
        let data: Vec<f64> = (0..200)
            .map(|i| {
                let noise = ((i * 2654435761u64 as usize) % 1000) as f64 / 10000.0;
                if i < 100 {
                    1.0 + noise
                } else {
                    1.5 + noise
                }
            })
            .collect();
        let r = detect_change_point(&data).unwrap();
        assert!((95..=104).contains(&r.index), "index = {}", r.index);
        assert!(r.mean_shift > 0.4);
    }

    #[test]
    fn constant_series_has_zero_magnitude() {
        let data = vec![2.0; 16];
        let r = detect_change_point(&data).unwrap();
        assert!(r.magnitude == 0.0);
        assert!(r.mean_shift == 0.0);
    }

    #[test]
    fn tabular_cusum_flags_drift() {
        let mut data = vec![0.0; 50];
        data.extend((0..50).map(|i| 0.1 * i as f64));
        let hit = tabular_cusum_upper(&data, 0.0, 0.05, 5.0).unwrap();
        assert!(hit.is_some());
        assert!(hit.unwrap() >= 50);
    }

    #[test]
    fn tabular_cusum_quiet_on_noise() {
        let data: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        assert_eq!(tabular_cusum_upper(&data, 0.0, 0.2, 5.0).unwrap(), None);
    }

    #[test]
    fn too_short_errors() {
        assert!(detect_change_point(&[1.0, 2.0]).is_err());
    }
}
