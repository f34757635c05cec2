//! The went-away detector (§5.2.2).
//!
//! Filters out transient regressions that recover on their own — the false
//! positive of Figure 1(c), which accounts for up to 99.7% of raw change
//! points. This is the paper's third-iteration design: a regression is kept
//! only when
//!
//! ```text
//! (NewPattern OR (SignificantRegression AND LastingTrend)) AND NOT RegressionGoneAway
//! ```
//!
//! where the terms are computed over SAX string representations (N=20
//! buckets, 3% validity), the Mann-Kendall trend test, Theil-Sen slopes,
//! and a MAD-based regression threshold with the 1.4826 normality constant
//! and a 1.5 coefficient. The paper prints the RegressionGoneAway guard on
//! the second branch only; guarding both means a fully recovered series is
//! never reported.
//!
//! # Evaluation order
//!
//! RegressionGoneAway is decided first: it needs only the seasonal period
//! and the mean of the post window's tail, and when it holds the predicate
//! is false whatever the other terms say. That is the common case — on a
//! cold scan of the monitoring-loop benchmark about 90% of candidates end
//! there — so recovered transients skip the SAX encodings, percentiles,
//! MAD, Mann-Kendall and Theil-Sen entirely, and their verdict reports the
//! skipped terms as `None`.
//!
//! The early exit is taken only when every call it skips is infallible on
//! the inputs: a valid SAX configuration, a well-formed post-analysis
//! slice, and samples that are finite and at most `f64::MAX / 4` in
//! magnitude (so the MAD's deviations cannot overflow to infinity, which
//! the median would reject). Otherwise every term is evaluated in the
//! original order, so a filter error — `NonFiniteInput` versus an invalid
//! SAX range, say — is exactly the one the eager evaluation would raise.
//! The decision, the error and every term that is computed are identical
//! to evaluating all terms eagerly.

use crate::config::DetectorConfig;
use crate::scan_cache::ScanCache;
use crate::types::Regression;
use crate::Result;
use fbd_stats::acf;
use fbd_stats::descriptive;
use fbd_stats::sax::{encode_in_range, SaxConfig};
use fbd_stats::trend::{mann_kendall, theil_sen, TrendDirection};

/// Largest sample magnitude for which the terms the early exit skips are
/// infallible: the median and MAD of such samples stay finite.
const SKIPPABLE_MAGNITUDE: f64 = f64::MAX / 4.0;

/// Term-by-term breakdown of the went-away predicate, for observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WentAwayVerdict {
    /// The post-regression pattern differs from anything in history;
    /// `None` when RegressionGoneAway decided the verdict first.
    pub new_pattern: Option<bool>,
    /// The regression magnitude is significant; `None` when
    /// RegressionGoneAway decided the verdict first.
    pub significant: Option<bool>,
    /// The regression persists (no substantial recovery trend); `None` when
    /// RegressionGoneAway decided the verdict first.
    pub lasting: Option<bool>,
    /// The final data points have returned to the baseline.
    pub gone_away: bool,
    /// The overall decision: `true` keeps the regression.
    pub keep: bool,
}

/// The went-away detector.
#[derive(Debug, Clone)]
pub struct WentAwayDetector {
    sax: SaxConfig,
    regression_coefficient: f64,
    new_pattern_fraction: f64,
    seasonality_acf_threshold: f64,
    max_seasonal_period: usize,
}

impl WentAwayDetector {
    /// Creates a detector from the pipeline configuration.
    pub fn from_config(config: &DetectorConfig) -> Self {
        WentAwayDetector {
            sax: config.sax,
            regression_coefficient: config.regression_coefficient,
            new_pattern_fraction: config.new_pattern_fraction,
            seasonality_acf_threshold: config.seasonality_acf_threshold,
            max_seasonal_period: config.max_seasonal_period,
        }
    }

    /// Evaluates the predicate; `verdict.keep == true` means the regression
    /// survives this filter.
    pub fn evaluate(&self, regression: &Regression) -> Result<WentAwayVerdict> {
        self.evaluate_with_cache(regression, None)
    }

    /// [`Self::evaluate`] with a cross-scan [`ScanCache`]: the SAX reference
    /// encoding of the historic window and the seasonality search are reused
    /// when this series' windows are unchanged since a previous round.
    pub fn evaluate_with_cache(
        &self,
        regression: &Regression,
        cache: Option<&ScanCache>,
    ) -> Result<WentAwayVerdict> {
        let data = regression.windows.all();
        let historic = regression.windows.historic();
        let cp = regression.change_index.min(data.len().saturating_sub(1));
        let post: &[f64] = &data[(cp + 1).min(data.len())..];
        if post.len() < 4 || historic.len() < 4 {
            // Too little evidence to refute; keep the candidate.
            return Ok(WentAwayVerdict {
                new_pattern: Some(false),
                significant: Some(true),
                lasting: Some(true),
                gone_away: false,
                keep: true,
            });
        }
        let magnitude = regression.magnitude();
        // §5.2: an *increase* means a regression (series are oriented
        // upstream). A non-positive shift is an improvement — filter it.
        if magnitude <= 0.0 {
            return Ok(WentAwayVerdict {
                new_pattern: Some(false),
                significant: Some(false),
                lasting: Some(false),
                gone_away: true,
                keep: false,
            });
        }
        let analysis_end = historic.len() + regression.windows.analysis_len();

        // --- RegressionGoneAway, first (see the module docs) ---
        // Only when nothing below can fail: then skipping it cannot hide an
        // error, and the period found here is reused further down.
        let mut early_period = None;
        if self.rest_is_infallible(data, cp, analysis_end) {
            let period = self.seasonal_period(regression, data, post.len(), cache);
            if regression_gone_away(regression, post, period, magnitude)? {
                return Ok(WentAwayVerdict {
                    new_pattern: None,
                    significant: None,
                    lasting: None,
                    gone_away: true,
                    keep: false,
                });
            }
            early_period = Some(period);
        }

        // SAX over the combined value range, with validity defined by the
        // historic window ("a letter is valid if its number of occurrences
        // exceeds a predefined threshold").
        let range_min = data.iter().copied().fold(f64::INFINITY, f64::min);
        let range_max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let reference = match cache {
            Some(c) => {
                c.sax_reference(&regression.series, historic, range_min, range_max, self.sax)?
            }
            None => encode_in_range(historic, range_min, range_max, self.sax)?,
        };
        let post_sax = reference.encode_with_same_buckets(post)?;

        // --- NewPattern ---
        let post_mean = descriptive::mean(post)?;
        let lowest_valid_edge = reference
            .smallest_valid_symbol()
            .map(|s| range_min + s as f64 * reference.bucket_width());
        let new_pattern = post_sax.invalid_fraction() > self.new_pattern_fraction
            && lowest_valid_edge.is_none_or(|edge| post_mean >= edge);

        // --- SignificantRegression ---
        // Largest post letter vs. largest valid historic letter.
        let post_analysis: &[f64] = &data[(cp + 1).min(data.len())..analysis_end.min(data.len())];
        let post_analysis_sax = if post_analysis.is_empty() {
            post_sax.clone()
        } else {
            reference.encode_with_same_buckets(post_analysis)?
        };
        let letter_ok = match reference.largest_valid_symbol() {
            Some(largest_valid) => post_analysis_sax.largest_symbol() >= largest_valid,
            None => true,
        };
        // P90(post) must exceed P95(historic) and P90 of the previous
        // period (the tail of the historic window, one post-length long).
        let p90_post = descriptive::percentile(post, 90.0)?;
        let p95_hist = descriptive::percentile(historic, 95.0)?;
        let prev_len = post.len().min(historic.len());
        let prev_slice = &historic[historic.len() - prev_len..];
        let p90_prev = descriptive::percentile(prev_slice, 90.0)?;
        let significant = letter_ok && p90_post > p95_hist && p90_post > p90_prev;

        let period = early_period
            .unwrap_or_else(|| self.seasonal_period(regression, data, post.len(), cache));
        // --- LastingTrend ---
        // Threshold = coefficient × MAD(historic) × 1.4826 (§5.2.2).
        let regression_threshold = self.regression_coefficient
            * descriptive::mad(historic)?
            * descriptive::MAD_NORMALITY_CONSTANT;
        let mk_post = mann_kendall(post, 0.05)?;
        let analysis_window: &[f64] = &data[historic.len()..analysis_end.min(data.len())];
        let mk_analysis = if analysis_window.len() >= 4 {
            mann_kendall(analysis_window, 0.05)?.direction
        } else {
            TrendDirection::None
        };
        let lasting = match mk_post.direction {
            TrendDirection::Decreasing => {
                // A recovery trend: the regression is lasting only if the
                // projected recovery is small relative to the shift — and a
                // projected recovery must be corroborated by the final level
                // actually approaching the baseline (a seasonal downswing
                // projects a recovery that never materializes).
                let slope = theil_sen(post)?.slope;
                let projected_recovery = slope.abs() * post.len() as f64;
                let corroboration_len = (post.len() / 10).max(5).max(period).min(post.len());
                let level_tail = descriptive::mean(&post[post.len() - corroboration_len..])?;
                let level_recovered = level_tail < regression.mean_before + 0.5 * magnitude;
                !(projected_recovery >= 0.5 * magnitude.abs() && level_recovered)
            }
            TrendDirection::Increasing => {
                // Still rising. Use the lower of the two window slopes "to
                // avoid over- or under-estimation" and require the total
                // rise to clear the MAD threshold.
                let slope_post = theil_sen(post)?.slope;
                let slope_analysis = if mk_analysis == TrendDirection::Increasing {
                    theil_sen(analysis_window)?.slope
                } else {
                    slope_post
                };
                let slope = slope_post.min(slope_analysis);
                slope * post.len() as f64 + magnitude >= regression_threshold
            }
            TrendDirection::None => {
                // A plateau at the new level: lasting when the level shift
                // itself clears the threshold.
                (post_mean - regression.mean_before) >= regression_threshold.min(magnitude * 0.5)
            }
        };

        let gone_away = regression_gone_away(regression, post, period, magnitude)?;

        // RegressionGoneAway is "the final sanity check": a series whose
        // last data points are back at the baseline is never reported, even
        // when its excursion formed a new pattern.
        let keep = (new_pattern || (significant && lasting)) && !gone_away;
        Ok(WentAwayVerdict {
            new_pattern: Some(new_pattern),
            significant: Some(significant),
            lasting: Some(lasting),
            gone_away,
            keep,
        })
    }

    /// Whether every fallible call after the early exit is certain to
    /// succeed: the SAX configuration is valid, the post-analysis slice is
    /// well formed, and every sample is finite and small enough that no
    /// statistic over it overflows into a rejected infinity.
    fn rest_is_infallible(&self, data: &[f64], cp: usize, analysis_end: usize) -> bool {
        self.sax.buckets > 0
            && (0.0..=1.0).contains(&self.sax.validity_fraction)
            && (cp + 1).min(data.len()) <= analysis_end.min(data.len())
            && data.iter().all(|v| v.abs() <= SKIPPABLE_MAGNITUDE)
    }

    /// Seasonal period of the series (0 when none): trend and tail checks
    /// must not mistake a diurnal trough for a recovery. Search errors read
    /// as "no seasonality".
    fn seasonal_period(
        &self,
        regression: &Regression,
        data: &[f64],
        post_len: usize,
        cache: Option<&ScanCache>,
    ) -> usize {
        let max_lag = self.max_seasonal_period.min(post_len / 2);
        match cache {
            Some(c) => c
                .seasonality(
                    &regression.series,
                    data,
                    2,
                    max_lag,
                    self.seasonality_acf_threshold,
                )
                .unwrap_or(None),
            None => acf::find_seasonality(data, 2, max_lag, self.seasonality_acf_threshold)
                .unwrap_or(None),
        }
        .map(|s| s.period)
        .unwrap_or(0)
    }
}

/// RegressionGoneAway: the final sanity check on the last few data points.
/// With seasonality present, the tail must span one full period so a trough
/// alone cannot read as a recovery.
fn regression_gone_away(
    regression: &Regression,
    post: &[f64],
    period: usize,
    magnitude: f64,
) -> Result<bool> {
    let tail_len = (post.len() / 10).max(5).max(period).min(post.len());
    let tail = &post[post.len() - tail_len..];
    let tail_mean = descriptive::mean(tail)?;
    Ok(tail_mean <= regression.mean_before + 0.25 * magnitude)
}

/// Ground truth for the early-exit evaluation: every term computed in the
/// original order, kept verbatim. The property tests below pin
/// [`WentAwayDetector::evaluate_with_cache`] to it.
#[cfg(test)]
mod eager_oracle {
    use super::*;

    /// The verdict with every term computed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct EagerVerdict {
        pub new_pattern: bool,
        pub significant: bool,
        pub lasting: bool,
        pub gone_away: bool,
        pub keep: bool,
    }

    impl WentAwayDetector {
        pub(super) fn evaluate_eager(
            &self,
            regression: &Regression,
            cache: Option<&ScanCache>,
        ) -> Result<EagerVerdict> {
            let data = regression.windows.all();
            let historic = regression.windows.historic();
            let cp = regression.change_index.min(data.len().saturating_sub(1));
            let post: &[f64] = &data[(cp + 1).min(data.len())..];
            if post.len() < 4 || historic.len() < 4 {
                // Too little evidence to refute; keep the candidate.
                return Ok(EagerVerdict {
                    new_pattern: false,
                    significant: true,
                    lasting: true,
                    gone_away: false,
                    keep: true,
                });
            }
            let magnitude = regression.magnitude();
            // §5.2: an *increase* means a regression (series are oriented
            // upstream). A non-positive shift is an improvement — filter it.
            if magnitude <= 0.0 {
                return Ok(EagerVerdict {
                    new_pattern: false,
                    significant: false,
                    lasting: false,
                    gone_away: true,
                    keep: false,
                });
            }
            // SAX over the combined value range, with validity defined by the
            // historic window ("a letter is valid if its number of occurrences
            // exceeds a predefined threshold").
            let range_min = data.iter().copied().fold(f64::INFINITY, f64::min);
            let range_max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let reference = match cache {
                Some(c) => {
                    c.sax_reference(&regression.series, historic, range_min, range_max, self.sax)?
                }
                None => encode_in_range(historic, range_min, range_max, self.sax)?,
            };
            let post_sax = reference.encode_with_same_buckets(post)?;

            // --- NewPattern ---
            let post_mean = descriptive::mean(post)?;
            let lowest_valid_edge = reference
                .smallest_valid_symbol()
                .map(|s| range_min + s as f64 * reference.bucket_width());
            let new_pattern = post_sax.invalid_fraction() > self.new_pattern_fraction
                && lowest_valid_edge.is_none_or(|edge| post_mean >= edge);

            // --- SignificantRegression ---
            // Largest post letter vs. largest valid historic letter.
            let analysis_end = historic.len() + regression.windows.analysis_len();
            let post_analysis: &[f64] =
                &data[(cp + 1).min(data.len())..analysis_end.min(data.len())];
            let post_analysis_sax = if post_analysis.is_empty() {
                post_sax.clone()
            } else {
                reference.encode_with_same_buckets(post_analysis)?
            };
            let letter_ok = match reference.largest_valid_symbol() {
                Some(largest_valid) => post_analysis_sax.largest_symbol() >= largest_valid,
                None => true,
            };
            // P90(post) must exceed P95(historic) and P90 of the previous
            // period (the tail of the historic window, one post-length long).
            let p90_post = descriptive::percentile(post, 90.0)?;
            let p95_hist = descriptive::percentile(historic, 95.0)?;
            let prev_len = post.len().min(historic.len());
            let prev_slice = &historic[historic.len() - prev_len..];
            let p90_prev = descriptive::percentile(prev_slice, 90.0)?;
            let significant = letter_ok && p90_post > p95_hist && p90_post > p90_prev;

            // Seasonal period, if any: trend and tail checks must not mistake
            // a diurnal trough for a recovery.
            let max_lag = self.max_seasonal_period.min(post.len() / 2);
            let period = match cache {
                Some(c) => c
                    .seasonality(
                        &regression.series,
                        data,
                        2,
                        max_lag,
                        self.seasonality_acf_threshold,
                    )
                    .unwrap_or(None),
                None => acf::find_seasonality(data, 2, max_lag, self.seasonality_acf_threshold)
                    .unwrap_or(None),
            }
            .map(|s| s.period)
            .unwrap_or(0);
            // --- LastingTrend ---
            // Threshold = coefficient × MAD(historic) × 1.4826 (§5.2.2).
            let regression_threshold = self.regression_coefficient
                * descriptive::mad(historic)?
                * descriptive::MAD_NORMALITY_CONSTANT;
            let mk_post = mann_kendall(post, 0.05)?;
            let analysis_window: &[f64] = &data[historic.len()..analysis_end.min(data.len())];
            let mk_analysis = if analysis_window.len() >= 4 {
                mann_kendall(analysis_window, 0.05)?.direction
            } else {
                TrendDirection::None
            };
            let lasting = match mk_post.direction {
                TrendDirection::Decreasing => {
                    // A recovery trend: the regression is lasting only if the
                    // projected recovery is small relative to the shift — and a
                    // projected recovery must be corroborated by the final level
                    // actually approaching the baseline (a seasonal downswing
                    // projects a recovery that never materializes).
                    let slope = theil_sen(post)?.slope;
                    let projected_recovery = slope.abs() * post.len() as f64;
                    let corroboration_len = (post.len() / 10).max(5).max(period).min(post.len());
                    let level_tail = descriptive::mean(&post[post.len() - corroboration_len..])?;
                    let level_recovered = level_tail < regression.mean_before + 0.5 * magnitude;
                    !(projected_recovery >= 0.5 * magnitude.abs() && level_recovered)
                }
                TrendDirection::Increasing => {
                    // Still rising. Use the lower of the two window slopes "to
                    // avoid over- or under-estimation" and require the total
                    // rise to clear the MAD threshold.
                    let slope_post = theil_sen(post)?.slope;
                    let slope_analysis = if mk_analysis == TrendDirection::Increasing {
                        theil_sen(analysis_window)?.slope
                    } else {
                        slope_post
                    };
                    let slope = slope_post.min(slope_analysis);
                    slope * post.len() as f64 + magnitude >= regression_threshold
                }
                TrendDirection::None => {
                    // A plateau at the new level: lasting when the level shift
                    // itself clears the threshold.
                    (post_mean - regression.mean_before)
                        >= regression_threshold.min(magnitude * 0.5)
                }
            };

            // --- RegressionGoneAway ---
            // Final sanity check on the last few data points. With seasonality
            // present, the tail must span one full period so a trough alone
            // cannot read as a recovery.
            let tail_len = (post.len() / 10).max(5).max(period).min(post.len());
            let tail = &post[post.len() - tail_len..];
            let tail_mean = descriptive::mean(tail)?;
            let gone_away = tail_mean <= regression.mean_before + 0.25 * magnitude;

            // RegressionGoneAway is "the final sanity check": a series whose
            // last data points are back at the baseline is never reported, even
            // when its excursion formed a new pattern.
            let keep = (new_pattern || (significant && lasting)) && !gone_away;
            Ok(EagerVerdict {
                new_pattern,
                significant,
                lasting,
                gone_away,
                keep,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::eager_oracle::EagerVerdict;
    use super::*;
    use crate::types::RegressionKind;
    use crate::DetectError;
    use fbd_stats::StatsError;
    use fbd_tsdb::{MetricKind, SeriesId, WindowedData};
    use proptest::prelude::*;

    fn noisy(n: usize, mean: f64, amp: f64, phase: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let mut z = (i as u64 ^ phase).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                mean + (((z >> 33) % 1000) as f64 / 1000.0 - 0.5) * amp
            })
            .collect()
    }

    fn regression(
        historic: Vec<f64>,
        analysis: Vec<f64>,
        extended: Vec<f64>,
        change_index: usize,
        mean_before: f64,
        mean_after: f64,
    ) -> Regression {
        Regression {
            series: SeriesId::new("svc", MetricKind::GCpu, "foo"),
            kind: RegressionKind::ShortTerm,
            change_index,
            change_time: 0,
            mean_before,
            mean_after,
            windows: WindowedData::from_regions(&historic, &analysis, &extended, 0, 100),
            root_cause_candidates: vec![],
        }
    }

    fn detector() -> WentAwayDetector {
        WentAwayDetector {
            sax: SaxConfig::default(),
            regression_coefficient: 1.5,
            new_pattern_fraction: 0.5,
            seasonality_acf_threshold: 0.4,
            max_seasonal_period: 26,
        }
    }

    #[test]
    fn persistent_step_is_kept() {
        let historic = noisy(300, 1.0, 0.1, 1);
        let mut analysis = noisy(30, 1.0, 0.1, 2);
        analysis.extend(noisy(70, 1.5, 0.1, 3));
        let extended = noisy(100, 1.5, 0.1, 4);
        let r = regression(historic, analysis, extended, 329, 1.0, 1.5);
        let v = detector().evaluate(&r).unwrap();
        assert!(v.keep, "verdict = {v:?}");
        assert!(!v.gone_away);
    }

    /// Figure 1(c): a spike after `pre_change` (the first 30 analysis
    /// samples) that recovers inside the extended window.
    fn recovered_transient(pre_change: Vec<f64>) -> Regression {
        let historic = noisy(300, 1.0, 0.1, 1);
        let mut analysis = pre_change;
        analysis.extend(noisy(40, 1.6, 0.1, 3));
        let mut extended = noisy(30, 1.3, 0.1, 4);
        extended.extend(noisy(70, 1.0, 0.1, 5));
        regression(historic, analysis, extended, 329, 1.0, 1.6)
    }

    #[test]
    fn recovered_transient_is_filtered() {
        let r = recovered_transient(noisy(30, 1.0, 0.1, 2));
        let v = detector().evaluate(&r).unwrap();
        assert!(!v.keep, "verdict = {v:?}");
        assert!(v.gone_away);
    }

    #[test]
    fn recovered_transient_exits_before_the_other_terms() {
        // RegressionGoneAway decides the verdict on its own: the SAX,
        // percentile and trend terms are never computed.
        let r = recovered_transient(noisy(30, 1.0, 0.1, 2));
        let d = detector();
        let v = d.evaluate(&r).unwrap();
        assert_eq!(v.lasting, None, "verdict = {v:?}");
        assert_eq!(v.new_pattern, None);
        assert_eq!(v.significant, None);
        let eager = d.evaluate_eager(&r, None).unwrap();
        assert!(eager.gone_away && !eager.keep, "eager = {eager:?}");
    }

    #[test]
    fn nan_before_the_change_still_errors() {
        // The pre-change analysis samples feed only the analysis-window
        // Mann-Kendall test, which rejects the NaN. The tail alone says
        // "gone away", but the early exit must not hide the error.
        let mut pre_change = noisy(30, 1.0, 0.1, 2);
        pre_change[10] = f64::NAN;
        let r = recovered_transient(pre_change);
        let d = detector();
        let err = d.evaluate(&r).unwrap_err();
        assert_eq!(err, DetectError::from(StatsError::NonFiniteInput));
        assert_eq!(Err(err), d.evaluate_eager(&r, None));
    }

    #[test]
    fn figure7_spike_in_history_does_not_mask_final_regression() {
        // A historical spike higher than the final regression level: the
        // spike's bucket is invalid (outlier), so the SAX letter test still
        // recognizes the final level as significant.
        let mut historic = noisy(280, 10.0, 0.3, 1);
        for v in historic[100..112].iter_mut() {
            *v += 4.0;
        }
        let mut analysis = noisy(30, 10.0, 0.3, 2);
        analysis.extend(noisy(70, 12.0, 0.3, 3));
        let extended = noisy(60, 12.0, 0.3, 4);
        let r = regression(historic, analysis, extended, 309, 10.0, 12.0);
        let v = detector().evaluate(&r).unwrap();
        assert!(v.keep, "verdict = {v:?}");
    }

    #[test]
    fn new_pattern_triggers_on_unprecedented_level() {
        // Post values far above anything historical: most letters invalid.
        let historic = noisy(300, 1.0, 0.1, 1);
        let analysis = noisy(100, 3.0, 0.1, 2);
        let extended = noisy(50, 3.0, 0.1, 3);
        let r = regression(historic, analysis, extended, 299, 1.0, 3.0);
        let v = detector().evaluate(&r).unwrap();
        assert_eq!(v.new_pattern, Some(true));
        assert!(v.keep);
    }

    #[test]
    fn new_low_pattern_is_not_a_regression() {
        // A new pattern BELOW the historical range is a cost drop, not a
        // regression ("unless the average value is lower than the lowest
        // valid bucket").
        let historic = noisy(300, 2.0, 0.1, 1);
        let analysis = noisy(100, 0.5, 0.05, 2);
        let extended = noisy(50, 0.5, 0.05, 3);
        let r = regression(historic, analysis, extended, 299, 2.0, 0.5);
        let v = detector().evaluate(&r).unwrap();
        assert_eq!(v.new_pattern, Some(false), "verdict = {v:?}");
        assert!(!v.keep);
    }

    #[test]
    fn recovering_trend_is_filtered() {
        // Post window trends steadily back toward the baseline.
        let historic = noisy(300, 1.0, 0.05, 1);
        let mut analysis = noisy(20, 1.0, 0.05, 2);
        analysis.extend((0..80).map(|i| 1.5 - 0.55 * i as f64 / 80.0));
        let extended: Vec<f64> = (0..50).map(|i| 0.95 + 0.001 * (i % 3) as f64).collect();
        let r = regression(historic, analysis, extended, 319, 1.0, 1.5);
        let v = detector().evaluate(&r).unwrap();
        assert!(!v.keep, "verdict = {v:?}");
    }

    #[test]
    fn short_post_window_is_kept_conservatively() {
        let historic = noisy(100, 1.0, 0.1, 1);
        let analysis = vec![1.5, 1.5];
        let r = regression(historic, analysis, vec![], 99, 1.0, 1.5);
        let v = detector().evaluate(&r).unwrap();
        assert!(v.keep);
    }

    #[test]
    fn tiny_shift_below_noise_is_filtered() {
        // A "regression" smaller than the noise floor: not significant.
        let historic = noisy(300, 1.0, 0.2, 1);
        let analysis = noisy(100, 1.005, 0.2, 7);
        let r = regression(historic, analysis, vec![], 299, 1.0, 1.005);
        let v = detector().evaluate(&r).unwrap();
        assert!(v.significant != Some(true) || !v.keep, "verdict = {v:?}");
    }

    /// Builds a candidate, and the SAX configuration of the detector that
    /// evaluates it, from raw proptest draws.
    ///
    /// - `shape`: 0 recovering transient, 1 persistent step, 2 trend back
    ///   to the baseline, 3 seasonal step (a square wave through every
    ///   region, period above `post.len() / 10`, sometimes ending in a
    ///   trough), 4 constant data whose change fields still claim a shift.
    /// - `lengths`: historic, pre-change and post lengths (selector 0 → 3,
    ///   1 → 4, otherwise `long`) and the share of post in the analysis
    ///   window.
    /// - `levels`: baseline, shift (selector 0 → non-positive), noise, seed.
    /// - `fault`: `(inject?, region, value, position)` — a NaN or ±inf in
    ///   the historic, pre-change analysis or post region.
    /// - `extras`: value scale (up to where the MAD overflows), SAX config
    ///   (sometimes invalid), and a change index moved into the historic
    ///   window or past the analysis window.
    fn generate_case(
        shape: u8,
        lengths: ((u8, usize), (u8, usize), usize, f64),
        levels: (f64, (u8, f64), f64, u64),
        season: (usize, usize),
        fault: (u8, u8, u8, f64),
        extras: (u8, u8, u8, usize),
    ) -> (Regression, SaxConfig) {
        let short_or = |(sel, long): (u8, usize)| match sel {
            0 => 3,
            1 => 4,
            _ => long,
        };
        let (historic_draw, post_draw, pre_len, post_in_analysis) = lengths;
        let historic_len = short_or(historic_draw);
        let (base, (shift_sel, shift_draw), noise, seed) = levels;
        let shift = if shift_sel == 0 {
            -shift_draw / 2.0
        } else {
            shift_draw
        };
        let (period, phase) = (season.0, season.1 % season.0);
        // Seasonal series need two periods of post data for the
        // seasonality search (max lag = post length / 2) to find them.
        let post_len = match shape {
            3 => short_or(post_draw).max(2 * period + phase),
            _ => short_or(post_draw),
        };
        let amplitude = if shape == 3 { shift.abs() * 1.2 } else { 0.0 };
        let total = historic_len + pre_len + post_len;
        let jitter = noisy(total, 0.0, noise, seed);
        let (scale_sel, sax_sel, cp_sel, cp_draw) = extras;
        let scale = match scale_sel {
            0 => 1e300,
            1 => 5e307,
            _ => 1.0,
        };
        let mut values: Vec<f64> = (0..total)
            .map(|i| {
                let progress = i
                    .checked_sub(historic_len + pre_len)
                    .map(|k| k as f64 / post_len as f64);
                let wave = if (i + phase) % period < period / 2 {
                    amplitude
                } else {
                    -amplitude
                };
                let v = match (shape, progress) {
                    (4, _) => base,
                    (3, None) => base + wave + jitter[i],
                    (_, None) => base + jitter[i],
                    (0, Some(p)) if p >= 0.4 => base + jitter[i],
                    (2, Some(p)) => base + shift * (1.0 - p) + jitter[i],
                    (3, Some(_)) => base + shift + wave + jitter[i],
                    (_, Some(_)) => base + shift + jitter[i],
                };
                v * scale
            })
            .collect();
        let (inject, region, bad, at) = fault;
        if inject == 0 {
            let (lo, hi) = match region {
                0 => (0, historic_len),
                1 => (historic_len, historic_len + pre_len),
                _ => (historic_len + pre_len, total),
            };
            let bad = match bad {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => f64::NEG_INFINITY,
            };
            values[(lo + ((hi - lo) as f64 * at) as usize).min(hi - 1)] = bad;
        }
        let sax = match sax_sel {
            0 => SaxConfig {
                buckets: 0,
                ..SaxConfig::default()
            },
            1 => SaxConfig {
                validity_fraction: 1.5,
                ..SaxConfig::default()
            },
            2 => SaxConfig {
                validity_fraction: f64::NAN,
                ..SaxConfig::default()
            },
            _ => SaxConfig::default(),
        };
        let analysis_len = pre_len + (post_len as f64 * post_in_analysis) as usize;
        let at_change = historic_len + pre_len - 1;
        let change_index = match cp_sel {
            0 => at_change.saturating_sub(cp_draw % 30 + 1),
            1 => (at_change + cp_draw % 200 + 1).min(total - 1),
            _ => at_change,
        };
        let r = regression(
            values[..historic_len].to_vec(),
            values[historic_len..historic_len + analysis_len].to_vec(),
            values[historic_len + analysis_len..].to_vec(),
            change_index,
            base * scale,
            (base + shift) * scale,
        );
        (r, sax)
    }

    /// The outcome of an evaluation that may panic (a change index past the
    /// analysis window makes the eager slicing panic).
    fn outcome<T>(f: impl FnOnce() -> Result<T>) -> Option<Result<T>> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
    }

    /// The early-exit verdict agrees with the eager one: same decision,
    /// same RegressionGoneAway, and every computed term equal.
    fn agrees(got: &Option<Result<WentAwayVerdict>>, want: &Option<Result<EagerVerdict>>) -> bool {
        match (got, want) {
            (Some(Ok(g)), Some(Ok(w))) => {
                g.keep == w.keep
                    && g.gone_away == w.gone_away
                    && g.new_pattern.is_none_or(|t| t == w.new_pattern)
                    && g.significant.is_none_or(|t| t == w.significant)
                    && g.lasting.is_none_or(|t| t == w.lasting)
            }
            (Some(Err(g)), Some(Err(w))) => g == w,
            (None, None) => true,
            _ => false,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn early_exit_matches_the_eager_oracle(
            shape in 0u8..5,
            lengths in ((0u8..8, 20usize..240), (0u8..8, 10usize..120), 1usize..40, 0.0f64..1.0),
            levels in (-1.0f64..4.0, (0u8..5, 0.05f64..2.0), 0.0f64..0.3, any::<u64>()),
            season in (12usize..=26, 0usize..26),
            fault in (0u8..4, 0u8..3, 0u8..3, 0.0f64..1.0),
            extras in (0u8..8, 0u8..9, 0u8..8, 0usize..1000),
        ) {
            let (r, sax) = generate_case(shape, lengths, levels, season, fault, extras);
            let d = WentAwayDetector { sax, ..detector() };
            let want = outcome(|| d.evaluate_eager(&r, None));
            let got = outcome(|| d.evaluate_with_cache(&r, None));
            prop_assert!(agrees(&got, &want), "uncached: got {got:?}, want {want:?}");
            // A cache warmed by an earlier evaluation — early-exit or eager —
            // must not change the outcome either.
            for warm_with_eager in [false, true] {
                let cache = ScanCache::new();
                if warm_with_eager {
                    let _ = outcome(|| d.evaluate_eager(&r, Some(&cache)));
                } else {
                    let _ = outcome(|| d.evaluate_with_cache(&r, Some(&cache)));
                }
                let got = outcome(|| d.evaluate_with_cache(&r, Some(&cache)));
                prop_assert!(
                    agrees(&got, &want),
                    "warmed (eager: {warm_with_eager}): got {got:?}, want {want:?}"
                );
            }
        }
    }
}
