//! Wire-boundary data-quality validation.
//!
//! Production collectors exhibit exactly five failure shapes — the
//! `DataFaultKind`s the fleet simulator injects — and the validator's job
//! is to *classify* them where they enter the system, then degrade
//! gracefully instead of failing the scan later:
//!
//! | fault                | wire signature                         | action      |
//! |----------------------|----------------------------------------|-------------|
//! | dropped samples      | timestamp gap ≫ the series' cadence    | count       |
//! | duplicated timestamp | timestamp equal to the previous point  | count, pass |
//! | NaN burst            | non-finite value                       | count, pass; quarantine the series when a batch is mostly NaN |
//! | stuck constant       | long run of bit-identical values       | count, pass |
//! | late window          | point far older than its batch's       | count, **shed** |
//! |                      | `collected_at`, or behind the series'  |             |
//! |                      | already-ingested tail                  |             |
//!
//! Only late points are shed — they are unappendable (the TSDB is
//! append-only) or stale beyond the acceptance window; everything else
//! passes through so the stored bytes match what a direct append of the
//! same corrupted stream would produce, and the scan-side coverage and
//! finite-fraction gates do the degrading. Every shed point is counted;
//! nothing is dropped silently.
//!
//! The unit of work is a per-series *run*, not a point. Each batch's
//! series dictionary is resolved once, entry by entry, to a persistent
//! slot in a `Vec`-backed table holding the series' streaming state, its
//! fault counts and its store shard (hashed once, on first sighting).
//! The per-point loop then indexes everything by slot — no map lookups,
//! no `SeriesId` clones — and the admitted points leave the validator
//! gathered into contiguous per-series runs ordered by shard, which is
//! both the routing key of the appender stage and the grouping
//! [`TsdbStore::append_runs`] takes.
//!
//! Series resolution goes through a `BTreeMap` and every value comparison
//! goes through `to_bits`, keeping the validator deterministic and
//! NaN-safe under `fbd-lint` supervision.

use crate::wire::{SampleBatch, WirePoint};
use fbd_tsdb::{DataPoint, SeriesId, SeriesRun, Timestamp, TsdbStore};
use std::collections::BTreeMap;

/// Tuning knobs for the wire-boundary checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidatorConfig {
    /// A gap counts as dropped samples when it exceeds `gap_factor` times
    /// the smallest cadence observed on the series.
    pub gap_factor: u64,
    /// Run length of bit-identical values that counts as a stuck
    /// collector.
    pub stuck_run: u32,
    /// Points older than `collected_at - late_slack` are late: counted
    /// and shed.
    pub late_slack: u64,
    /// When at least this fraction of a series' points in one batch is
    /// non-finite (and the series sent at least [`ValidatorConfig::nan_burst_min_points`]),
    /// the series is flagged for quarantine as a data-quality fault.
    pub nan_burst_fraction: f64,
    /// Minimum per-batch sample count before the NaN-burst fraction is
    /// meaningful.
    pub nan_burst_min_points: u32,
}

impl Default for ValidatorConfig {
    fn default() -> Self {
        ValidatorConfig {
            gap_factor: 3,
            stuck_run: 8,
            late_slack: 900,
            nan_burst_fraction: 0.5,
            nan_burst_min_points: 4,
        }
    }
}

/// Per-kind fault observations, mirroring the fleet simulator's five
/// `DataFaultKind`s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Gap events larger than the cadence allows (dropped samples).
    pub dropped_gaps: u64,
    /// Points repeating the previous timestamp.
    pub duplicated: u64,
    /// Non-finite values.
    pub nan: u64,
    /// Runs of bit-identical values reaching the stuck threshold.
    pub stuck_runs: u64,
    /// Late points (counted *and* shed).
    pub late: u64,
}

impl FaultCounts {
    pub(crate) fn add(&mut self, other: &FaultCounts) {
        self.dropped_gaps += other.dropped_gaps;
        self.duplicated += other.duplicated;
        self.nan += other.nan;
        self.stuck_runs += other.stuck_runs;
        self.late += other.late;
    }

    /// Whether every counter is zero.
    pub fn is_clean(&self) -> bool {
        *self == FaultCounts::default()
    }
}

/// Streaming state of one series across batches.
#[derive(Debug, Clone, Copy, Default)]
struct SeriesState {
    last_ts: Option<Timestamp>,
    last_bits: Option<u64>,
    /// Consecutive repeats of `last_bits`.
    repeats: u32,
    min_delta: Option<u64>,
}

/// What one point did to its series: `(faults, admitted)`.
fn classify_point(
    cfg: &ValidatorConfig,
    state: &mut SeriesState,
    collected_at: Timestamp,
    timestamp: Timestamp,
    value: f64,
) -> (FaultCounts, bool) {
    let mut faults = FaultCounts::default();
    if !value.is_finite() {
        faults.nan += 1;
    }
    // Stuck-constant runs: bit-identical consecutive values.
    if state.last_bits == Some(value.to_bits()) {
        state.repeats = state.repeats.saturating_add(1);
        // `repeats + 1` samples agree; count each run once, when it first
        // reaches the threshold.
        if state.repeats + 1 == cfg.stuck_run {
            faults.stuck_runs += 1;
        }
    } else {
        state.repeats = 0;
        state.last_bits = Some(value.to_bits());
    }
    let mut late = collected_at.saturating_sub(timestamp) > cfg.late_slack;
    match state.last_ts {
        Some(last) if timestamp < last => late = true,
        Some(last) if timestamp == last => faults.duplicated += 1,
        Some(last) => {
            let delta = timestamp - last;
            if let Some(md) = state.min_delta {
                if delta > cfg.gap_factor.saturating_mul(md) {
                    faults.dropped_gaps += 1;
                }
                state.min_delta = Some(md.min(delta));
            } else {
                state.min_delta = Some(delta);
            }
        }
        None => {}
    }
    if late {
        faults.late += 1;
    } else {
        // Advance the tail watermark only for admitted points, so it
        // mirrors what the store will actually hold.
        state.last_ts = Some(match state.last_ts {
            Some(last) => last.max(timestamp),
            None => timestamp,
        });
    }
    (faults, !late)
}

/// Whether a series' per-batch `(points, non-finite points)` crosses the
/// NaN-burst quarantine threshold.
fn is_nan_burst(cfg: &ValidatorConfig, points: u32, nan: u32) -> bool {
    nan > 0
        && points >= cfg.nan_burst_min_points
        && f64::from(nan) >= cfg.nan_burst_fraction * f64::from(points)
}

/// One series' admitted points in a [`ValidatedBatch`];
/// [`ValidatedBatch::series_run`] resolves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Index of the series in the batch's series dictionary.
    pub entry: u16,
    /// The store shard the series routes to ([`TsdbStore::shard_of`]).
    pub shard: usize,
    /// First index of the run in the batch's point buffer.
    pub start: usize,
    /// One past the last index of the run in the batch's point buffer.
    pub end: usize,
}

/// What the validator decided about one batch.
#[derive(Debug, Clone, Default)]
pub struct ValidatedBatch {
    /// The batch's series dictionary; runs name their series by index.
    series: Vec<SeriesId>,
    /// Admitted points as one run per series, ordered by shard and then by
    /// the series' first arrival in the batch. Within a run points keep
    /// their arrival order, so per-series append order is unchanged.
    runs: Vec<Run>,
    /// The runs' points, back to back.
    points: Vec<DataPoint>,
    /// Late points shed (already included in the fault counts).
    pub late_shed: u64,
    /// Series whose batch crossed the NaN-burst quarantine threshold.
    pub nan_flagged: Vec<SeriesId>,
    /// Faults observed in this batch.
    pub faults: FaultCounts,
}

impl ValidatedBatch {
    /// Number of admitted points.
    pub fn admitted(&self) -> usize {
        self.points.len()
    }

    /// One run per series with admitted points, ordered by shard and then
    /// by the series' first arrival in the batch. Within a run points
    /// keep their arrival order, so per-series append order is unchanged.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// The runs grouped by store shard, as `(shard, runs)`, in shard order.
    pub fn shard_groups(&self) -> impl Iterator<Item = (usize, &[Run])> {
        self.runs
            .chunk_by(|a, b| a.shard == b.shard)
            .map(|group| (group.first().map_or(0, |r| r.shard), group))
    }

    /// The series and points of one of this batch's runs. `None` only for
    /// a run that does not belong to this batch.
    pub fn series_run(&self, run: &Run) -> Option<SeriesRun<'_>> {
        Some(SeriesRun {
            id: self.series.get(usize::from(run.entry))?,
            points: self.points.get(run.start..run.end)?,
        })
    }
}

/// Sentinel for "no run in the current batch".
const NO_RUN: usize = usize::MAX;

/// One series' row in the validator's slot table.
#[derive(Debug, Clone)]
struct Slot {
    state: SeriesState,
    faults: FaultCounts,
    /// Whether any point named the series (it then has a
    /// [`Validator::per_series`] entry, clean or not).
    seen: bool,
    /// The store shard the series routes to, hashed once.
    shard: usize,
    /// The series' run in the batch being validated, or [`NO_RUN`].
    batch_run: usize,
}

/// A run while its batch is being classified.
#[derive(Debug, Clone, Copy)]
struct RunTally {
    slot: usize,
    entry: u16,
    shard: usize,
    len: usize,
}

/// Buffers reused from batch to batch.
#[derive(Debug, Default)]
struct Scratch {
    /// Dictionary index → slot.
    entry_slot: Vec<usize>,
    /// Dictionary index → (points, non-finite points) in this batch.
    entry_tally: Vec<(u32, u32)>,
    /// Admitted points in arrival order, tagged with their run.
    arrivals: Vec<(usize, DataPoint)>,
    /// This batch's runs, in first-arrival order.
    runs: Vec<RunTally>,
    /// Run indices in output order.
    order: Vec<usize>,
    /// Per run: the next free index of its points in the output.
    cursor: Vec<usize>,
}

/// Streaming per-series validation state over the whole ingest session.
#[derive(Debug, Default)]
pub struct Validator {
    config: ValidatorConfig,
    /// Series → slot, consulted once per dictionary entry per batch.
    slot_of: BTreeMap<SeriesId, usize>,
    slots: Vec<Slot>,
    totals: FaultCounts,
    scratch: Scratch,
}

impl Validator {
    /// Creates a validator with the given thresholds.
    pub fn new(config: ValidatorConfig) -> Self {
        Validator {
            config,
            ..Validator::default()
        }
    }

    /// Classifies one batch and returns its admissible points as
    /// per-series runs. The batch's dictionary moves into the result.
    pub fn validate(&mut self, batch: SampleBatch) -> ValidatedBatch {
        let mut out = ValidatedBatch::default();
        self.resolve(batch.series());
        self.classify(batch.points(), batch.collected_at, &mut out);
        self.totals.add(&out.faults);
        for (entry, &(points, nan)) in self.scratch.entry_tally.iter().enumerate() {
            if is_nan_burst(&self.config, points, nan) {
                if let Some(id) = batch.series().get(entry) {
                    out.nan_flagged.push(id.clone());
                }
            }
        }
        self.gather(&mut out);
        out.series = batch.into_series();
        out
    }

    /// Maps every dictionary entry to its slot, creating slots for series
    /// never seen before.
    fn resolve(&mut self, series: &[SeriesId]) {
        let scratch = &mut self.scratch;
        scratch.entry_slot.clear();
        for id in series {
            let slot = match self.slot_of.get(id) {
                Some(&slot) => slot,
                None => {
                    let slot = self.slots.len();
                    self.slots.push(Slot {
                        state: SeriesState::default(),
                        faults: FaultCounts::default(),
                        seen: false,
                        shard: TsdbStore::shard_of(id),
                        batch_run: NO_RUN,
                    });
                    self.slot_of.insert(id.clone(), slot);
                    slot
                }
            };
            scratch.entry_slot.push(slot);
        }
        scratch.entry_tally.clear();
        scratch.entry_tally.resize(series.len(), (0, 0));
    }

    /// The per-point pass: classifies every point in arrival order,
    /// indexing state by slot, and tallies the admitted ones into runs.
    // fbd-lint::hot
    fn classify(
        &mut self,
        points: &[WirePoint],
        collected_at: Timestamp,
        out: &mut ValidatedBatch,
    ) {
        let cfg = self.config;
        let scratch = &mut self.scratch;
        scratch.arrivals.clear();
        scratch.runs.clear();
        for point in points {
            let entry = usize::from(point.series);
            let resolved = scratch.entry_slot.get(entry).copied();
            let Some((slot, row)) =
                resolved.and_then(|slot| Some((slot, self.slots.get_mut(slot)?)))
            else {
                // Decode validates indices, so an unresolvable index only
                // happens on hand-built batches. Shed and count it rather
                // than lose it silently.
                out.faults.late += 1;
                out.late_shed += 1;
                continue;
            };
            if let Some(tally) = scratch.entry_tally.get_mut(entry) {
                tally.0 += 1;
                tally.1 += u32::from(!point.value.is_finite());
            }
            let (faults, admitted) = classify_point(
                &cfg,
                &mut row.state,
                collected_at,
                point.timestamp,
                point.value,
            );
            if admitted {
                if row.batch_run == NO_RUN {
                    row.batch_run = scratch.runs.len();
                    scratch.runs.push(RunTally {
                        slot,
                        entry: point.series,
                        shard: row.shard,
                        len: 0,
                    });
                }
                if let Some(run) = scratch.runs.get_mut(row.batch_run) {
                    run.len += 1;
                }
                scratch
                    .arrivals
                    .push((row.batch_run, DataPoint::new(point.timestamp, point.value)));
            } else {
                out.late_shed += 1;
            }
            row.faults.add(&faults);
            row.seen = true;
            out.faults.add(&faults);
        }
    }

    /// Lays the runs out by (shard, first arrival) and scatters the
    /// admitted points into them: a stable counting sort by run over one
    /// output buffer.
    fn gather(&mut self, out: &mut ValidatedBatch) {
        let scratch = &mut self.scratch;
        scratch.order.clear();
        scratch.order.extend(0..scratch.runs.len());
        // Run indices are unique, so this unstable sort is deterministic.
        scratch
            .order
            .sort_unstable_by_key(|&r| (scratch.runs.get(r).map_or(0, |run| run.shard), r));
        scratch.cursor.clear();
        scratch.cursor.resize(scratch.runs.len(), 0);
        out.runs.reserve_exact(scratch.runs.len());
        let mut start = 0;
        for &r in &scratch.order {
            let Some(run) = scratch.runs.get(r) else {
                continue;
            };
            scratch.cursor[r] = start;
            out.runs.push(Run {
                entry: run.entry,
                shard: run.shard,
                start,
                end: start + run.len,
            });
            start += run.len;
        }
        out.points.resize(start, DataPoint::new(0, 0.0));
        for &(r, point) in &scratch.arrivals {
            let at = &mut scratch.cursor[r];
            out.points[*at] = point;
            *at += 1;
        }
        for run in &scratch.runs {
            if let Some(slot) = self.slots.get_mut(run.slot) {
                slot.batch_run = NO_RUN;
            }
        }
    }

    /// Total fault observations since construction.
    pub fn totals(&self) -> &FaultCounts {
        &self.totals
    }

    /// Per-series fault observations, in series-id order: one entry for
    /// every series any point named, clean ones included.
    pub fn per_series(&self) -> BTreeMap<SeriesId, FaultCounts> {
        self.slot_of
            .iter()
            .filter_map(|(id, &slot)| {
                let row = self.slots.get(slot).filter(|row| row.seen)?;
                Some((id.clone(), row.faults))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_tsdb::{MetricKind, SeriesId};

    fn sid(n: u32) -> SeriesId {
        SeriesId::new("svc", MetricKind::GCpu, format!("s{n}"))
    }

    fn batch_of(collected_at: u64, pts: &[(u32, u64, f64)]) -> SampleBatch {
        let mut b = SampleBatch::new("t", collected_at);
        for &(s, ts, v) in pts {
            b.push(&sid(s), ts, v).unwrap();
        }
        b
    }

    #[test]
    fn clean_stream_admits_everything() {
        let mut v = Validator::new(ValidatorConfig::default());
        let out = v.validate(batch_of(40, &[(0, 10, 1.0), (0, 20, 1.1), (0, 30, 1.2)]));
        assert_eq!(out.admitted(), 3);
        assert_eq!(out.late_shed, 0);
        assert!(out.faults.is_clean());
        assert!(v.totals().is_clean());
    }

    #[test]
    fn gap_counts_as_dropped_samples() {
        let mut v = Validator::new(ValidatorConfig::default());
        // Cadence 10 established, then a 50-tick gap (> 3×10).
        let out = v.validate(batch_of(
            120,
            &[(0, 10, 1.0), (0, 20, 1.1), (0, 70, 1.2), (0, 80, 1.3)],
        ));
        assert_eq!(out.faults.dropped_gaps, 1);
        assert_eq!(out.admitted(), 4, "gapped points still pass through");
    }

    #[test]
    fn duplicates_counted_and_passed() {
        let mut v = Validator::new(ValidatorConfig::default());
        let out = v.validate(batch_of(40, &[(0, 10, 1.0), (0, 10, 1.0), (0, 20, 1.1)]));
        assert_eq!(out.faults.duplicated, 1);
        assert_eq!(out.admitted(), 3);
    }

    #[test]
    fn nan_burst_counted_passed_and_flagged() {
        let mut v = Validator::new(ValidatorConfig::default());
        let out = v.validate(batch_of(
            60,
            &[
                (0, 10, f64::NAN),
                (0, 20, f64::NAN),
                (0, 30, f64::NAN),
                (0, 40, 1.0),
            ],
        ));
        assert_eq!(out.faults.nan, 3);
        assert_eq!(out.admitted(), 4, "NaN passes through to the store");
        assert_eq!(out.nan_flagged, vec![sid(0)]);
        // A mostly-finite batch is not flagged.
        let out = v.validate(batch_of(
            120,
            &[(1, 50, 1.0), (1, 60, f64::NAN), (1, 70, 1.0), (1, 80, 1.0)],
        ));
        assert_eq!(out.faults.nan, 1);
        assert!(out.nan_flagged.is_empty());
    }

    #[test]
    fn stuck_run_counted_once() {
        let mut v = Validator::new(ValidatorConfig {
            stuck_run: 3,
            ..ValidatorConfig::default()
        });
        let pts: Vec<(u32, u64, f64)> = (0..6).map(|i| (0, 10 * (i + 1), 4.25)).collect();
        let out = v.validate(batch_of(100, &pts));
        assert_eq!(out.faults.stuck_runs, 1, "one run, counted once");
        assert_eq!(out.admitted(), 6);
    }

    #[test]
    fn late_points_are_shed_and_counted() {
        let mut v = Validator::new(ValidatorConfig::default());
        let first = v.validate(batch_of(40, &[(0, 10, 1.0), (0, 30, 1.1)]));
        assert_eq!(first.late_shed, 0);
        // ts 20 is behind the series tail (30): unappendable, shed.
        let behind = v.validate(batch_of(60, &[(0, 20, 2.0)]));
        assert_eq!(behind.late_shed, 1);
        assert_eq!(behind.faults.late, 1);
        assert_eq!(behind.admitted(), 0);
        // A point 5000 ticks older than its batch's collection time is
        // beyond the acceptance window even with no tail conflict.
        let stale = v.validate(batch_of(6_000, &[(1, 100, 1.0)]));
        assert_eq!(stale.late_shed, 1);
        assert_eq!(stale.admitted(), 0);
        assert_eq!(v.totals().late, 2);
        assert_eq!(v.per_series()[&sid(0)].late, 1);
        assert_eq!(v.per_series()[&sid(1)].late, 1);
    }

    #[test]
    fn state_spans_batches() {
        let mut v = Validator::new(ValidatorConfig::default());
        v.validate(batch_of(40, &[(0, 10, 1.0), (0, 20, 1.1)]));
        // Same cadence continues in the next batch: no gap at the seam...
        let out = v.validate(batch_of(60, &[(0, 30, 1.2)]));
        assert_eq!(out.faults.dropped_gaps, 0);
        // ...but a cross-batch gap is still caught.
        let out = v.validate(batch_of(220, &[(0, 200, 1.3)]));
        assert_eq!(out.faults.dropped_gaps, 1);
    }
}
