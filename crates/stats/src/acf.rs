//! Autocorrelation for seasonality presence checks (§5.2.3).
//!
//! Before running STL, FBDetect applies the autocorrelation function and only
//! treats a series as seasonal if the correlation at some lag is significant.

use crate::error::{ensure_finite, ensure_len};
use crate::{Result, StatsError};

/// Autocorrelation of `data` at a single `lag`.
///
/// Uses the standard biased estimator normalized by the lag-0 variance, so
/// values lie in `[-1, 1]`.
pub fn autocorrelation(data: &[f64], lag: usize) -> Result<f64> {
    ensure_len(data, lag + 2)?;
    ensure_finite(data)?;
    if lag == 0 {
        return Ok(1.0);
    }
    let n = data.len();
    let mean = data.iter().sum::<f64>() / n as f64;
    let denom: f64 = data.iter().map(|v| (v - mean) * (v - mean)).sum();
    if !(denom > 0.0) {
        return Err(StatsError::Degenerate("zero variance in autocorrelation"));
    }
    let num: f64 = (0..n - lag)
        .map(|i| (data[i] - mean) * (data[i + lag] - mean))
        .sum();
    Ok(num / denom)
}

/// Autocorrelations for all lags `1..=max_lag`.
///
/// Dispatches between the per-lag estimator ([`acf_naive`], O(n·max_lag))
/// and the Wiener–Khinchin FFT path ([`acf_fft`], O(n log n) for *all* lags
/// at once). The choice depends only on `(data.len(), max_lag)`, so it is
/// deterministic; the small-lag regime used by the seasonality detector
/// always takes the naive path and stays bit-identical to previous releases,
/// while wide scans (`max_lag` of order n) get the linearithmic kernel.
pub fn acf(data: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    if acf_fft_pays_off(data.len(), max_lag) {
        acf_fft(data, max_lag)
    } else {
        acf_naive(data, max_lag)
    }
}

/// Reference all-lags ACF via the per-lag O(n) estimator.
///
/// Ground truth for the property tests pinning [`acf_fft`]; also the
/// faster kernel when `max_lag` is small relative to `n`.
///
/// The mean and lag-0 variance are hoisted out of the per-lag loop: each
/// lag's value is the same expression [`autocorrelation`] computes (the
/// hoisted terms are identical f64s), so results are bit-identical to
/// mapping `autocorrelation` over the lags, at roughly a third of the
/// arithmetic. Validation order (length, finiteness, degeneracy, then the
/// max-lag length requirement) mirrors the sequential per-lag path, so
/// callers observe identical errors.
pub fn acf_naive(data: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    if max_lag == 0 {
        return Ok(Vec::new());
    }
    let n = data.len();
    // Lag 1 requires 3 samples; sequential mapping would fail there first.
    ensure_len(data, 3)?;
    ensure_finite(data)?;
    let mean = data.iter().sum::<f64>() / n as f64;
    let denom: f64 = data.iter().map(|v| (v - mean) * (v - mean)).sum();
    if !(denom > 0.0) {
        return Err(StatsError::Degenerate("zero variance in autocorrelation"));
    }
    if max_lag > n - 2 {
        // Sequential mapping computes lags up to n − 2, then errors on lag
        // n − 1, whose length requirement is n + 1.
        return Err(StatsError::TooFewSamples {
            required: n + 1,
            actual: n,
        });
    }
    Ok((1..=max_lag)
        .map(|lag| {
            let num: f64 = (0..n - lag)
                .map(|i| (data[i] - mean) * (data[i + lag] - mean))
                .sum();
            num / denom
        })
        .collect())
}

/// All-lags ACF in O(n log n) via the Wiener–Khinchin theorem.
///
/// Centers the series, zero-pads to `m = (2n).next_power_of_two()` (so the
/// circular autocorrelation of the padded signal equals the *linear* lagged
/// products for every lag `< n`), takes the power spectrum, and inverse
/// transforms. Each lag-k output is then the exact sum
/// `Σ_i (x_i − mean)(x_{i+k} − mean)` up to FFT round-off, normalized by the
/// directly computed lag-0 variance — the same denominator as
/// [`autocorrelation`], so the two paths agree to ~1e-9 relative error.
///
/// Validation order (length, finiteness, degeneracy) replicates the naive
/// path exactly so callers observe identical errors.
pub fn acf_fft(data: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    if max_lag == 0 {
        return Ok(Vec::new());
    }
    let n = data.len();
    // The naive path fails at lag 1 when n < 3 (ensure_len(data, 3)).
    ensure_len(data, 3)?;
    ensure_finite(data)?;
    let mean = data.iter().sum::<f64>() / n as f64;
    let denom: f64 = data.iter().map(|v| (v - mean) * (v - mean)).sum();
    if !(denom > 0.0) {
        return Err(StatsError::Degenerate("zero variance in autocorrelation"));
    }
    if max_lag > n - 2 {
        // The naive path computes lags up to n − 2, then errors on lag
        // n − 1, whose length requirement is n + 1.
        return Err(StatsError::TooFewSamples {
            required: n + 1,
            actual: n,
        });
    }
    let m = (2 * n).next_power_of_two();
    let mut re = vec![0.0; m];
    for (slot, &v) in re.iter_mut().zip(data.iter()) {
        *slot = v - mean;
    }
    let mut im = vec![0.0; m];
    crate::fourier::fft_pow2(&mut re, &mut im, false);
    for k in 0..m {
        re[k] = re[k] * re[k] + im[k] * im[k];
        im[k] = 0.0;
    }
    crate::fourier::fft_pow2(&mut re, &mut im, true);
    Ok((1..=max_lag).map(|lag| re[lag] / denom).collect())
}

/// Deterministic cost model for the [`acf`] dispatch: the FFT path costs
/// three length-m transforms (m = next power of two ≥ 2n) against
/// `n·max_lag` multiply-adds for the naive path. The factor 8 accounts for
/// the heavier per-butterfly arithmetic; below `max_lag = 32` the naive path
/// always wins (and stays bit-identical for the seasonality detector's
/// small-lag scans).
fn acf_fft_pays_off(n: usize, max_lag: usize) -> bool {
    if max_lag < 32 || n < 8 {
        return false;
    }
    let m = (2 * n).next_power_of_two();
    let log_m = m.trailing_zeros() as usize;
    n.saturating_mul(max_lag) > 8 * m * log_m
}

/// Detected seasonality, if any.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seasonality {
    /// The dominant period in samples.
    pub period: usize,
    /// Autocorrelation at that period.
    pub strength: f64,
}

/// Searches for a dominant seasonal period via the ACF.
///
/// Scans lags `min_period..=max_lag` for local ACF maxima exceeding
/// `threshold` (the significance bound `~1.96/√n` is a common choice; the
/// detector uses a stricter default). Returns the strongest peak.
///
/// # Examples
///
/// ```
/// let data: Vec<f64> = (0..200)
///     .map(|i| (i as f64 / 20.0 * std::f64::consts::TAU).sin())
///     .collect();
/// let s = fbd_stats::acf::find_seasonality(&data, 2, 60, 0.3).unwrap();
/// assert_eq!(s.unwrap().period, 20);
/// ```
pub fn find_seasonality(
    data: &[f64],
    min_period: usize,
    max_lag: usize,
    threshold: f64,
) -> Result<Option<Seasonality>> {
    if min_period < 2 {
        return Err(StatsError::InvalidParameter("min_period must be >= 2"));
    }
    let max_lag = max_lag.min(data.len().saturating_sub(2));
    if max_lag < min_period {
        return Ok(None);
    }
    let correlations = acf(data, max_lag)?;
    let mut best: Option<Seasonality> = None;
    for lag in min_period..=max_lag {
        let c = correlations[lag - 1];
        if c < threshold {
            continue;
        }
        // Require a local maximum so harmonics of smaller peaks don't win on
        // plateaus.
        let prev = if lag >= 2 {
            correlations[lag - 2]
        } else {
            f64::MIN
        };
        let next = if lag < max_lag {
            correlations[lag]
        } else {
            f64::MIN
        };
        if c >= prev && c >= next {
            match best {
                Some(b) if b.strength >= c => {}
                _ => {
                    best = Some(Seasonality {
                        period: lag,
                        strength: c,
                    })
                }
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_zero_is_one() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(
            autocorrelation(&data, 0).unwrap().to_bits(),
            1.0f64.to_bits()
        );
    }

    #[test]
    fn sine_peaks_at_period() {
        let data: Vec<f64> = (0..240)
            .map(|i| (i as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect();
        let s = find_seasonality(&data, 2, 72, 0.3).unwrap().unwrap();
        assert_eq!(s.period, 24);
        assert!(s.strength > 0.85, "strength = {}", s.strength);
    }

    #[test]
    fn white_noise_has_no_seasonality() {
        // SplitMix-style bit mixing gives properly decorrelated noise.
        let data: Vec<f64> = (0..300)
            .map(|i| {
                let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let h = z ^ (z >> 31);
                ((h >> 33) % 1000) as f64 / 1000.0 - 0.5
            })
            .collect();
        let s = find_seasonality(&data, 2, 100, 0.3).unwrap();
        assert!(s.is_none());
    }

    #[test]
    fn trend_does_not_register_as_short_seasonality() {
        // A pure linear trend produces high ACF at all lags but no local
        // peaks in short lags (monotone decreasing ACF).
        let data: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let s = find_seasonality(&data, 2, 50, 0.95).unwrap();
        // Only the first lag can be a "peak"; period should not be mid-range.
        if let Some(s) = s {
            assert!(s.period <= 3, "unexpected period {}", s.period);
        }
    }

    #[test]
    fn anticorrelated_at_half_period() {
        let data: Vec<f64> = (0..240)
            .map(|i| (i as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect();
        let c = autocorrelation(&data, 12).unwrap();
        assert!(c < -0.7, "half-period ACF = {c}");
    }

    #[test]
    fn constant_series_degenerate() {
        let data = vec![5.0; 50];
        assert!(matches!(
            autocorrelation(&data, 3),
            Err(StatsError::Degenerate(_))
        ));
    }

    #[test]
    fn acf_returns_requested_lags() {
        let data: Vec<f64> = (0..50).map(|i| (i % 5) as f64).collect();
        let v = acf(&data, 10).unwrap();
        assert_eq!(v.len(), 10);
        assert!(v.iter().all(|c| (-1.0001..=1.0001).contains(c)));
    }

    fn pseudo_series(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let mut z = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(seed);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z >> 33) % 10_000) as f64 / 1_000.0 - 5.0
            })
            .collect()
    }

    #[test]
    fn hoisted_naive_acf_is_bit_identical_to_per_lag_estimator() {
        for &n in &[16usize, 100, 900] {
            let data = pseudo_series(n, n as u64);
            let hoisted = acf_naive(&data, n - 2).unwrap();
            for (lag, h) in hoisted.iter().enumerate() {
                let direct = autocorrelation(&data, lag + 1).unwrap();
                assert_eq!(h.to_bits(), direct.to_bits(), "n={n} lag {}", lag + 1);
            }
        }
    }

    #[test]
    fn fft_acf_matches_naive_all_lags() {
        for &n in &[16usize, 100, 225, 900] {
            let data = pseudo_series(n, n as u64 + 3);
            let max_lag = n - 2;
            let fast = acf_fft(&data, max_lag).unwrap();
            let slow = acf_naive(&data, max_lag).unwrap();
            assert_eq!(fast.len(), slow.len());
            for (lag, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert!((f - s).abs() < 1e-9, "n={n} lag {}: {f} vs {s}", lag + 1);
            }
        }
    }

    #[test]
    fn fft_acf_error_parity_with_naive() {
        // Degenerate variance.
        let flat = vec![5.0; 50];
        assert!(matches!(
            acf_fft(&flat, 3),
            Err(StatsError::Degenerate(_))
        ));
        // Too short for lag 1.
        assert!(matches!(
            acf_fft(&[1.0, 2.0], 1),
            Err(StatsError::TooFewSamples { .. })
        ));
        // max_lag beyond n − 2 fails like the naive sequential path.
        let data = pseudo_series(10, 9);
        let fast_err = acf_fft(&data, 9);
        let slow_err = acf_naive(&data, 9);
        assert!(matches!(
            fast_err,
            Err(StatsError::TooFewSamples {
                required: 11,
                actual: 10
            })
        ));
        assert!(matches!(
            slow_err,
            Err(StatsError::TooFewSamples {
                required: 11,
                actual: 10
            })
        ));
        // Zero lags: both return an empty vector.
        assert!(acf_fft(&data, 0).unwrap().is_empty());
        assert!(acf_naive(&data, 0).unwrap().is_empty());
    }

    #[test]
    fn dispatch_uses_fft_for_wide_scans() {
        // Wide-lag scan where the FFT path is selected; the dispatcher must
        // still agree with naive to float tolerance.
        let n = 1024;
        let data = pseudo_series(n, 77);
        assert!(super::acf_fft_pays_off(n, n - 2));
        assert!(!super::acf_fft_pays_off(900, 26));
        let via_dispatch = acf(&data, n - 2).unwrap();
        let slow = acf_naive(&data, n - 2).unwrap();
        for (f, s) in via_dispatch.iter().zip(&slow) {
            assert!((f - s).abs() < 1e-9);
        }
    }
}
