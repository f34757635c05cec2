//! Per-stage wall-time attribution for scan rounds.
//!
//! The round-cadence benchmark asserts that warm (streaming) and cold scan
//! outcomes are byte-identical, fingerprinting `reports + funnel + health`
//! every round. Wall time is never byte-identical, so stage timings must
//! live *outside* [`crate::types::ScanHealth`] and
//! [`crate::types::FunnelCounters`]: this module keeps them in a separate
//! atomic accumulator on the pipeline, read through
//! [`crate::pipeline::Pipeline::stage_profile`]. Workers accumulate into a
//! plain [`StageNanos`] on the stack and flush once per shard/worker, so
//! the per-series cost is two monotonic clock reads, not contended atomics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Plain per-stage nanosecond totals; the unit both of worker-local
/// accumulation and of [`StageProfile::snapshot`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageNanos {
    /// Streaming-engine delta ingest (tail copies from the store).
    pub ingest: u64,
    /// Window production: engine `prepare` (partitioning, replay checks,
    /// window assembly) or store extraction on the non-engine path.
    pub windowing: u64,
    /// Short-term change-point detection.
    pub short_term: u64,
    /// Long-term / trend detection (incl. seasonality search + STL).
    pub long_term: u64,
    /// Streaming-engine outcome recording and buffer reclaim.
    pub complete: u64,
    /// Went-away filtering of short-term candidates.
    pub went_away: u64,
    /// Seasonality filtering of short-term candidates.
    pub seasonality: u64,
    /// Threshold filter plus SameRegressionMerger.
    pub threshold: u64,
    /// SOMDedup grouping.
    pub som_dedup: u64,
    /// Cost-shift analysis.
    pub cost_shift: u64,
    /// PairwiseDedup into accumulated groups.
    pub pairwise_dedup: u64,
    /// Root cause analysis.
    pub root_cause: u64,
}

impl StageNanos {
    /// `(name, nanos)` pairs in pipeline stage order.
    pub fn named(&self) -> [(&'static str, u64); 12] {
        [
            ("ingest", self.ingest),
            ("windowing", self.windowing),
            ("short_term", self.short_term),
            ("long_term", self.long_term),
            ("complete", self.complete),
            ("went_away", self.went_away),
            ("seasonality", self.seasonality),
            ("threshold", self.threshold),
            ("som_dedup", self.som_dedup),
            ("cost_shift", self.cost_shift),
            ("pairwise_dedup", self.pairwise_dedup),
            ("root_cause", self.root_cause),
        ]
    }

    /// Sum over all stages.
    pub fn total(&self) -> u64 {
        self.named().iter().map(|(_, ns)| ns).sum()
    }

    /// Per-stage difference `self - earlier`, saturating at zero (for
    /// deltas across two snapshots of a monotone accumulator).
    pub fn since(&self, earlier: &StageNanos) -> StageNanos {
        StageNanos {
            ingest: self.ingest.saturating_sub(earlier.ingest),
            windowing: self.windowing.saturating_sub(earlier.windowing),
            short_term: self.short_term.saturating_sub(earlier.short_term),
            long_term: self.long_term.saturating_sub(earlier.long_term),
            complete: self.complete.saturating_sub(earlier.complete),
            went_away: self.went_away.saturating_sub(earlier.went_away),
            seasonality: self.seasonality.saturating_sub(earlier.seasonality),
            threshold: self.threshold.saturating_sub(earlier.threshold),
            som_dedup: self.som_dedup.saturating_sub(earlier.som_dedup),
            cost_shift: self.cost_shift.saturating_sub(earlier.cost_shift),
            pairwise_dedup: self.pairwise_dedup.saturating_sub(earlier.pairwise_dedup),
            root_cause: self.root_cause.saturating_sub(earlier.root_cause),
        }
    }

    /// Adds another accumulation into this one.
    pub fn accumulate(&mut self, other: &StageNanos) {
        self.ingest += other.ingest;
        self.windowing += other.windowing;
        self.short_term += other.short_term;
        self.long_term += other.long_term;
        self.complete += other.complete;
        self.went_away += other.went_away;
        self.seasonality += other.seasonality;
        self.threshold += other.threshold;
        self.som_dedup += other.som_dedup;
        self.cost_shift += other.cost_shift;
        self.pairwise_dedup += other.pairwise_dedup;
        self.root_cause += other.root_cause;
    }
}

/// Shared cumulative stage clock: workers flush [`StageNanos`] batches in,
/// benchmarks snapshot deltas out. Relaxed atomics — the values are
/// telemetry, ordered only by the caller's own round structure.
#[derive(Debug, Default)]
pub struct StageProfile {
    ingest: AtomicU64,
    windowing: AtomicU64,
    short_term: AtomicU64,
    long_term: AtomicU64,
    complete: AtomicU64,
    went_away: AtomicU64,
    seasonality: AtomicU64,
    threshold: AtomicU64,
    som_dedup: AtomicU64,
    cost_shift: AtomicU64,
    pairwise_dedup: AtomicU64,
    root_cause: AtomicU64,
}

impl StageProfile {
    /// Folds one worker-local batch into the shared totals.
    pub fn add(&self, delta: &StageNanos) {
        for (field, value) in self.fields().into_iter().zip(delta.named()) {
            if value.1 != 0 {
                field.fetch_add(value.1, Ordering::Relaxed);
            }
        }
    }

    /// Current cumulative totals.
    pub fn snapshot(&self) -> StageNanos {
        StageNanos {
            ingest: self.ingest.load(Ordering::Relaxed),
            windowing: self.windowing.load(Ordering::Relaxed),
            short_term: self.short_term.load(Ordering::Relaxed),
            long_term: self.long_term.load(Ordering::Relaxed),
            complete: self.complete.load(Ordering::Relaxed),
            went_away: self.went_away.load(Ordering::Relaxed),
            seasonality: self.seasonality.load(Ordering::Relaxed),
            threshold: self.threshold.load(Ordering::Relaxed),
            som_dedup: self.som_dedup.load(Ordering::Relaxed),
            cost_shift: self.cost_shift.load(Ordering::Relaxed),
            pairwise_dedup: self.pairwise_dedup.load(Ordering::Relaxed),
            root_cause: self.root_cause.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every stage counter.
    pub fn reset(&self) {
        for field in self.fields() {
            field.store(0, Ordering::Relaxed);
        }
    }

    fn fields(&self) -> [&AtomicU64; 12] {
        [
            &self.ingest,
            &self.windowing,
            &self.short_term,
            &self.long_term,
            &self.complete,
            &self.went_away,
            &self.seasonality,
            &self.threshold,
            &self.som_dedup,
            &self.cost_shift,
            &self.pairwise_dedup,
            &self.root_cause,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_snapshot_delta_roundtrip() {
        let profile = StageProfile::default();
        let batch = StageNanos {
            windowing: 100,
            long_term: 250,
            ..StageNanos::default()
        };
        profile.add(&batch);
        profile.add(&batch);
        let first = profile.snapshot();
        assert_eq!(first.windowing, 200);
        assert_eq!(first.long_term, 500);
        profile.add(&batch);
        let delta = profile.snapshot().since(&first);
        assert_eq!(delta.windowing, 100);
        assert_eq!(delta.long_term, 250);
        assert_eq!(delta.short_term, 0);
        assert_eq!(delta.total(), 350);
    }

    #[test]
    fn named_covers_every_stage_once() {
        let n = StageNanos {
            ingest: 1,
            windowing: 2,
            short_term: 3,
            long_term: 4,
            complete: 5,
            went_away: 6,
            seasonality: 7,
            threshold: 8,
            som_dedup: 9,
            cost_shift: 10,
            pairwise_dedup: 11,
            root_cause: 12,
        };
        let named = n.named();
        assert_eq!(named.len(), 12);
        assert_eq!(n.total(), (1..=12).sum::<u64>());
        let mut names: Vec<&str> = named.iter().map(|(s, _)| *s).collect();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn reset_zeroes_and_accumulate_adds() {
        let profile = StageProfile::default();
        let mut a = StageNanos::default();
        a.rca_set_for_test();
        profile.add(&a);
        profile.reset();
        assert_eq!(profile.snapshot().total(), 0);
        let mut acc = StageNanos::default();
        acc.accumulate(&a);
        acc.accumulate(&a);
        assert_eq!(acc.total(), 2 * a.total());
    }

    impl StageNanos {
        fn rca_set_for_test(&mut self) {
            self.root_cause = 7;
            self.went_away = 3;
        }
    }
}
