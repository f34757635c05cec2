//! Clustering features for regression deduplication (§5.5.1).
//!
//! SOMDedup represents each regression with "typical time-series metrics
//! like Fourier frequencies, variance, and change points, along with
//! several distinguishing features": a bitmap of candidate root causes and
//! the metric ID encoded as an integer with 2-/3-gram TF-IDF.

use crate::types::Regression;
use crate::Result;
use fbd_changelog::{ChangeId, ChangeLog};
use fbd_stats::{descriptive, fourier, text::TfIdf};

/// Number of bits in the root-cause-candidate bitmap feature.
pub const ROOT_CAUSE_BITMAP_BITS: usize = 16;

/// Builds the candidate-root-cause bitmap: bit `i` is set when change
/// `candidates[i]` modifies the regressed subroutine shortly before the
/// regression (§5.5.1). `candidates` fixes the bit assignment across the
/// whole batch so bitmaps are comparable.
pub fn root_cause_bitmap(
    regression: &Regression,
    log: &ChangeLog,
    candidates: &[ChangeId],
    lookback: u64,
) -> u64 {
    let start = regression.change_time.saturating_sub(lookback);
    let matching = log.modifying_subroutine_between(
        &regression.series.target,
        start,
        regression.change_time + 1,
    );
    let mut bitmap = 0u64;
    for c in matching {
        if let Some(pos) = candidates.iter().position(|&id| id == c.id) {
            if pos < ROOT_CAUSE_BITMAP_BITS {
                bitmap |= 1 << pos;
            }
        }
    }
    bitmap
}

/// Extracts the SOMDedup feature vector for one regression.
///
/// Layout: `[variance, change_index_fraction, magnitude, relative_change,
/// low_frequency_fraction, dominant_bin_fraction, tfidf_signature_hi,
/// tfidf_signature_lo, bitmap]`.
pub fn feature_vector(regression: &Regression, tfidf: &TfIdf, bitmap: u64) -> Result<Vec<f64>> {
    let analysis = regression.windows.analysis();
    let variance = if analysis.len() >= 2 {
        descriptive::variance(analysis)?
    } else {
        0.0
    };
    let all_len = regression.windows.total_len().max(1);
    let change_fraction = regression.change_index as f64 / all_len as f64;
    let spectral = if analysis.len() >= 4 {
        fourier::spectral_features(analysis, 1)?
    } else {
        fbd_stats::fourier::SpectralFeatures {
            dominant_bins: vec![1],
            dominant_magnitudes: vec![0.0],
            energy: 0.0,
            low_frequency_fraction: 0.0,
        }
    };
    let dominant_fraction =
        *spectral.dominant_bins.first().unwrap_or(&1) as f64 / (analysis.len() / 2).max(1) as f64;
    let signature = tfidf.integer_signature(&regression.metric_id());
    let relative = regression.relative_change();
    let relative = if relative.is_finite() { relative } else { 1e6 };
    Ok(vec![
        variance,
        change_fraction,
        regression.magnitude(),
        relative,
        spectral.low_frequency_fraction,
        dominant_fraction,
        (signature >> 32) as f64,
        (signature & 0xFFFF_FFFF) as f64,
        bitmap as f64,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RegressionKind;
    use fbd_changelog::{Change, ChangeKind};
    use fbd_tsdb::{MetricKind, SeriesId, WindowedData};

    fn regression(target: &str, change_time: u64) -> Regression {
        Regression {
            series: SeriesId::new("svc", MetricKind::GCpu, target),
            kind: RegressionKind::ShortTerm,
            change_index: 50,
            change_time,
            mean_before: 1.0,
            mean_after: 1.2,
            windows: WindowedData::from_regions(
                &vec![1.0; 50],
                &(0..50).map(|i| 1.0 + (i % 5) as f64 * 0.01).collect::<Vec<_>>(),
                &[],
                0,
                100,
            ),
            root_cause_candidates: vec![],
        }
    }

    fn change(id: u64, time: u64, subs: &[&str]) -> Change {
        Change {
            id,
            kind: ChangeKind::Code,
            service: "svc".into(),
            deploy_time: time,
            modified_subroutines: subs.iter().map(|s| s.to_string()).collect(),
            title: String::new(),
            summary: String::new(),
            files: vec![],
            author: String::new(),
        }
    }

    #[test]
    fn bitmap_flags_matching_changes() {
        let mut log = ChangeLog::new();
        log.record(change(10, 90, &["foo"]));
        log.record(change(11, 95, &["bar"]));
        log.record(change(12, 99, &["foo"]));
        let r = regression("foo", 100);
        let candidates = vec![10, 11, 12];
        let bitmap = root_cause_bitmap(&r, &log, &candidates, 3_600);
        assert_eq!(bitmap, 0b101); // Changes 10 and 12 modify foo.
    }

    #[test]
    fn bitmap_respects_lookback() {
        let mut log = ChangeLog::new();
        log.record(change(10, 5, &["foo"]));
        let r = regression("foo", 10_000);
        let bitmap = root_cause_bitmap(&r, &log, &[10], 100);
        assert_eq!(bitmap, 0); // Deployed far before the lookback.
    }

    #[test]
    fn feature_vector_has_fixed_layout() {
        let model = TfIdf::fit(&["svc::foo.gcpu", "svc::bar.gcpu"], &[2, 3]);
        let v = feature_vector(&regression("foo", 100), &model, 0b11).unwrap();
        assert_eq!(v.len(), 9);
        assert_eq!(v[8].to_bits(), 3.0f64.to_bits()); // The bitmap rides in the last slot.
        assert!(v[0] >= 0.0); // Variance.
        assert!((0.0..=1.0).contains(&v[1])); // Change fraction.
    }

    #[test]
    fn same_metric_ids_share_signature_features() {
        let model = TfIdf::fit(&["svc::foo.gcpu", "svc::bar.gcpu"], &[2, 3]);
        let a = feature_vector(&regression("foo", 100), &model, 0).unwrap();
        let b = feature_vector(&regression("foo", 200), &model, 0).unwrap();
        assert_eq!(a[6].to_bits(), b[6].to_bits());
        assert_eq!(a[7].to_bits(), b[7].to_bits());
        let c = feature_vector(&regression("bar", 100), &model, 0).unwrap();
        assert_ne!((a[6], a[7]), (c[6], c[7]));
    }
}
