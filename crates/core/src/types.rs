//! Data types flowing through the detection pipeline.

use fbd_changelog::ChangeId;
use fbd_tsdb::{SeriesId, Timestamp, WindowedData};

/// Whether a regression came from the short-term (sudden) or long-term
/// (gradual) detection path (§5.2 vs §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegressionKind {
    /// A sudden step change caught by the short-term path.
    ShortTerm,
    /// A gradual change caught by the long-term path.
    LongTerm,
}

/// A detected (candidate or confirmed) regression.
#[derive(Debug, Clone)]
pub struct Regression {
    /// The regressed series.
    pub series: SeriesId,
    /// Short-term or long-term path.
    pub kind: RegressionKind,
    /// Index of the change point within the scanned values (historic ++
    /// analysis ++ extended concatenation).
    pub change_index: usize,
    /// Wall-clock time of the change point.
    pub change_time: Timestamp,
    /// Mean before the change point.
    pub mean_before: f64,
    /// Mean after the change point (within the analysis region).
    pub mean_after: f64,
    /// The windows the regression was detected in.
    pub windows: WindowedData,
    /// Ranked root-cause candidate change ids (filled by RCA; empty until
    /// then or when confidence is too low).
    pub root_cause_candidates: Vec<ChangeId>,
}

impl Regression {
    /// Absolute magnitude of the shift, `mean_after - mean_before`.
    pub fn magnitude(&self) -> f64 {
        self.mean_after - self.mean_before
    }

    /// Relative change, `(mean_after - mean_before) / mean_before`
    /// (infinite for a zero baseline).
    pub fn relative_change(&self) -> f64 {
        // fbd-lint::allow(float-eq): exact-zero baseline sentinel; NaN means
        // take the division path below, which propagates it
        if self.mean_before == 0.0 {
            // fbd-lint::allow(float-eq): exact-zero sentinel, same contract
            if self.mean_after == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.mean_after - self.mean_before) / self.mean_before.abs()
        }
    }

    /// The paper's "metric ID" text feature for this regression.
    pub fn metric_id(&self) -> String {
        self.series.metric_id()
    }

    /// Values after the change point (analysis + extended region).
    pub fn post_change_values(&self) -> Vec<f64> {
        let all = self.windows.all();
        all[self.change_index.saturating_add(1).min(all.len())..].to_vec()
    }
}

/// Fleet-health telemetry for one scan (or accumulated across a
/// monitoring run).
///
/// The scan supervisor isolates per-series failures instead of aborting,
/// so the outcome of a scan is no longer just reports — it is reports
/// *plus* an account of which series could not be scanned and which
/// pipeline stages were shed under budget pressure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanHealth {
    /// Series requested for this scan.
    pub series_total: usize,
    /// Series that completed detection (including partial-data ones).
    pub series_scanned: usize,
    /// Series skipped because their windows held no usable data.
    pub series_skipped: usize,
    /// Series scanned on windows sparser than the coverage floor.
    pub series_partial: usize,
    /// Series skipped because they are parked in quarantine.
    pub series_quarantined: usize,
    /// Detector panics caught and isolated by the supervisor.
    pub panicked: usize,
    /// Per-series detector errors (detection and filter stages).
    pub errored: usize,
    /// Batch-stage errors survived by degrading (SOMDedup, RCA, …).
    pub stage_errors: usize,
    /// Pipeline stages skipped this scan (deduplicated, in stage order).
    pub stages_skipped: Vec<&'static str>,
    /// Whether the scan shed stages (budget pressure or stage failure).
    pub degraded: bool,
}

impl ScanHealth {
    /// Adds another scan's health into this one (for monitoring runs).
    pub fn accumulate(&mut self, other: &ScanHealth) {
        self.series_total += other.series_total;
        self.series_scanned += other.series_scanned;
        self.series_skipped += other.series_skipped;
        self.series_partial += other.series_partial;
        self.series_quarantined += other.series_quarantined;
        self.panicked += other.panicked;
        self.errored += other.errored;
        self.stage_errors += other.stage_errors;
        for stage in &other.stages_skipped {
            if !self.stages_skipped.contains(stage) {
                self.stages_skipped.push(stage);
            }
        }
        self.degraded |= other.degraded;
    }

    /// Marks a stage as skipped (idempotent) and flags degradation.
    pub fn skip_stage(&mut self, stage: &'static str) {
        if !self.stages_skipped.contains(&stage) {
            self.stages_skipped.push(stage);
        }
        self.degraded = true;
    }
}

/// Per-stage counters for the filtering funnel (Table 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FunnelCounters {
    /// Change points detected (§5.2.1 / §5.3).
    pub change_points: usize,
    /// Remaining after went-away detection (§5.2.2).
    pub after_went_away: usize,
    /// Remaining after seasonality detection (§5.2.3).
    pub after_seasonality: usize,
    /// Remaining after threshold filtering (Table 1).
    pub after_threshold: usize,
    /// Remaining after SameRegressionMerger.
    pub after_same_merger: usize,
    /// Remaining after SOMDedup (§5.5.1).
    pub after_som_dedup: usize,
    /// Remaining after cost-shift analysis (§5.4).
    pub after_cost_shift: usize,
    /// Remaining after PairwiseDedup (§5.5.2).
    pub after_pairwise_dedup: usize,
}

impl FunnelCounters {
    /// Adds another funnel's counts into this one.
    pub fn accumulate(&mut self, other: &FunnelCounters) {
        self.change_points += other.change_points;
        self.after_went_away += other.after_went_away;
        self.after_seasonality += other.after_seasonality;
        self.after_threshold += other.after_threshold;
        self.after_same_merger += other.after_same_merger;
        self.after_som_dedup += other.after_som_dedup;
        self.after_cost_shift += other.after_cost_shift;
        self.after_pairwise_dedup += other.after_pairwise_dedup;
    }

    /// Reduction ratio of a stage relative to the change-point count, in
    /// the Table 3 "1/x" form. Returns `None` when the stage is empty.
    pub fn reduction(&self, remaining: usize) -> Option<f64> {
        if remaining == 0 {
            None
        } else {
            Some(self.change_points as f64 / remaining as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_tsdb::MetricKind;

    fn regression(before: f64, after: f64) -> Regression {
        Regression {
            series: SeriesId::new("svc", MetricKind::GCpu, "foo"),
            kind: RegressionKind::ShortTerm,
            change_index: 9,
            change_time: 1000,
            mean_before: before,
            mean_after: after,
            windows: WindowedData::from_regions(
                &[before; 10],
                &[after; 5],
                &[after; 5],
                900,
                1100,
            ),
            root_cause_candidates: vec![],
        }
    }

    #[test]
    fn magnitude_and_relative_change() {
        let r = regression(1.0, 1.1);
        assert!((r.magnitude() - 0.1).abs() < 1e-12);
        assert!((r.relative_change() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn relative_change_zero_baseline() {
        let r = regression(0.0, 0.5);
        assert!(r.relative_change().is_infinite());
        let r = regression(0.0, 0.0);
        assert!(r.relative_change() == 0.0);
    }

    #[test]
    fn post_change_values_slice() {
        let r = regression(1.0, 2.0);
        // 20 values total, change at index 9 -> 10 post values.
        assert_eq!(r.post_change_values().len(), 10);
        assert!(r
            .post_change_values()
            .iter()
            .all(|&v| v.to_bits() == 2.0f64.to_bits()));
    }

    #[test]
    fn funnel_accumulation_and_reduction() {
        let mut a = FunnelCounters {
            change_points: 100,
            after_went_away: 10,
            ..Default::default()
        };
        let b = FunnelCounters {
            change_points: 50,
            after_went_away: 5,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.change_points, 150);
        assert_eq!(a.reduction(a.after_went_away), Some(10.0));
        assert_eq!(a.reduction(0), None);
    }
}
