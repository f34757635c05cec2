//! The per-point ingest path that per-series runs replaced, kept as a test
//! oracle.
//!
//! [`PointValidator`] is the validator as it was before runs: series state
//! and per-series faults in `BTreeMap`s keyed by id, admitted points as
//! `(SeriesId, Timestamp, f64)` triples in arrival order. [`point_ingest`]
//! drives it with the same decode, quota and quarantine steps as
//! [`reference_ingest`](crate::pipeline::reference_ingest) and appends point
//! by point. The store's per-point [`TsdbStore::append`] checks the shard
//! budget after every point where a batched append checks it once per
//! shard, so the comparisons here use stores without a budget, where the
//! two orders store the same bytes.
//!
//! The property tests compare the run-based validator and the whole
//! run-based ingest path against this oracle. The threaded pipeline's own
//! proptest compares it with `reference_ingest`, but both of those share
//! the run-based code, so only a comparison with this independent copy can
//! catch a change of behaviour in it.

use crate::pipeline::IngestStats;
use crate::quota::TenantQuotas;
use crate::validate::FaultCounts;
use crate::wire::{decode_batch, peek_point_count, SampleBatch};
use crate::IngestConfig;
use bytes::Bytes;
use fbd_sync::OrderedMutex;
use fbd_tsdb::{SeriesId, Timestamp, TsdbStore};
use fbdetect_core::quarantine::{FaultKind, Quarantine};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, Default)]
struct SeriesState {
    last_ts: Option<Timestamp>,
    last_bits: Option<u64>,
    run: u32,
    min_delta: Option<u64>,
}

/// What the per-point validator decided about one batch.
#[derive(Debug, Clone, Default)]
pub(crate) struct PointValidated {
    /// Points admitted for routing, in arrival order.
    pub routed: Vec<(SeriesId, Timestamp, f64)>,
    /// Late points shed (already included in the fault counts).
    pub late_shed: u64,
    /// Series whose batch crossed the NaN-burst quarantine threshold.
    pub nan_flagged: Vec<SeriesId>,
    /// Faults observed in this batch.
    pub faults: FaultCounts,
}

/// The per-point validator.
#[derive(Debug, Default)]
pub(crate) struct PointValidator {
    config: crate::ValidatorConfig,
    state: BTreeMap<SeriesId, SeriesState>,
    per_series: BTreeMap<SeriesId, FaultCounts>,
    totals: FaultCounts,
}

impl PointValidator {
    pub(crate) fn new(config: crate::ValidatorConfig) -> Self {
        PointValidator {
            config,
            ..PointValidator::default()
        }
    }

    pub(crate) fn validate(&mut self, batch: &SampleBatch) -> PointValidated {
        let mut out = PointValidated::default();
        // Per-batch per-series (points, non-finite points) for the
        // NaN-burst threshold.
        let mut batch_points: BTreeMap<u16, (u32, u32)> = BTreeMap::new();
        for point in batch.points() {
            let Some(id) = batch.series_of(point) else {
                out.faults.late += 1;
                out.late_shed += 1;
                self.totals.late += 1;
                continue;
            };
            let entry = batch_points.entry(point.series).or_insert((0, 0));
            entry.0 += 1;
            let mut per_point = FaultCounts::default();
            if !point.value.is_finite() {
                per_point.nan += 1;
                entry.1 += 1;
            }
            let state = self.state.entry(id.clone()).or_default();
            if state.last_bits == Some(point.value.to_bits()) {
                state.run = state.run.saturating_add(1);
                if state.run + 1 == self.config.stuck_run {
                    per_point.stuck_runs += 1;
                }
            } else {
                state.run = 0;
                state.last_bits = Some(point.value.to_bits());
            }
            let mut late =
                batch.collected_at.saturating_sub(point.timestamp) > self.config.late_slack;
            match state.last_ts {
                Some(last) if point.timestamp < last => late = true,
                Some(last) if point.timestamp == last => per_point.duplicated += 1,
                Some(last) => {
                    let delta = point.timestamp - last;
                    if let Some(md) = state.min_delta {
                        if delta > self.config.gap_factor.saturating_mul(md) {
                            per_point.dropped_gaps += 1;
                        }
                        state.min_delta = Some(md.min(delta));
                    } else {
                        state.min_delta = Some(delta);
                    }
                }
                None => {}
            }
            if late {
                per_point.late += 1;
                out.late_shed += 1;
            } else {
                state.last_ts = Some(match state.last_ts {
                    Some(last) => last.max(point.timestamp),
                    None => point.timestamp,
                });
                out.routed.push((id.clone(), point.timestamp, point.value));
            }
            self.per_series
                .entry(id.clone())
                .or_default()
                .add(&per_point);
            out.faults.add(&per_point);
            self.totals.add(&per_point);
        }
        let cfg = self.config;
        for (idx, (total, nan)) in batch_points {
            if nan > 0
                && total >= cfg.nan_burst_min_points
                && f64::from(nan) >= cfg.nan_burst_fraction * f64::from(total)
            {
                if let Some(id) = batch.series().get(idx as usize) {
                    out.nan_flagged.push(id.clone());
                }
            }
        }
        out
    }

    pub(crate) fn totals(&self) -> &FaultCounts {
        &self.totals
    }

    pub(crate) fn per_series(&self) -> &BTreeMap<SeriesId, FaultCounts> {
        &self.per_series
    }
}

/// Ingests `batches` on the caller's thread through the per-point path:
/// decode, quota, [`PointValidator`], then one [`TsdbStore::append`] per
/// admitted point.
pub(crate) fn point_ingest(
    store: &TsdbStore,
    batches: &[Bytes],
    config: IngestConfig,
    quarantine: &OrderedMutex<Quarantine>,
) -> IngestStats {
    let mut stats = IngestStats::default();
    let mut validator = PointValidator::new(config.validator);
    let mut quotas = TenantQuotas::new(config.quota);
    for raw in batches {
        let declared = u64::from(peek_point_count(raw).unwrap_or(0));
        stats.batches_submitted += 1;
        stats.points_submitted += declared;
        let Ok(batch) = decode_batch(raw) else {
            stats.decode_errors += 1;
            stats.decode_error_points += declared;
            continue;
        };
        let points = batch.point_count() as u64;
        if !quotas.admit(&batch.tenant, batch.collected_at, points) {
            stats.quota_violations += 1;
            stats.quota_shed_points += points;
            let mut q = quarantine.lock();
            for id in batch.series() {
                q.record_failure(
                    id,
                    FaultKind::DataQuality,
                    format!("tenant {} over ingest quota", batch.tenant),
                    batch.collected_at,
                );
            }
            continue;
        }
        let validated = validator.validate(&batch);
        if !validated.nan_flagged.is_empty() {
            let mut q = quarantine.lock();
            for id in &validated.nan_flagged {
                q.record_failure(
                    id,
                    FaultKind::DataQuality,
                    "non-finite burst at wire boundary",
                    batch.collected_at,
                );
            }
        }
        for (id, timestamp, value) in &validated.routed {
            match store.append(id, *timestamp, *value) {
                Ok(()) => stats.points_appended += 1,
                Err(_) => stats.append_rejected += 1,
            }
        }
    }
    stats.late_shed_points = validator.totals().late;
    stats.faults = *validator.totals();
    stats.per_series_faults = validator.per_series().clone();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{reference_ingest, IngestPipeline};
    use crate::quota::QuotaConfig;
    use crate::validate::Validator;
    use crate::wire::{encode_batch, WirePoint};
    use crate::ValidatorConfig;
    use fbd_sync::LockDomain;
    use fbd_tsdb::snapshot::write_snapshot;
    use fbd_tsdb::{MetricKind, StoreConfig};
    use fbdetect_core::quarantine::QuarantineConfig;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Series pool: a few services so runs spread over several shards.
    fn sid(n: u8) -> SeriesId {
        SeriesId::new(format!("svc{}", n % 3), MetricKind::GCpu, format!("s{n}"))
    }

    /// One batch: `(tenant, dictionary, points, nan-heavy)`, where the
    /// dictionary holds series-pool indices (repeats allowed) and each
    /// point is `(dictionary slot, timestamp offset class, value class)`.
    type BatchSpec = (u8, Vec<u8>, Vec<(u8, u8, u8)>, bool);

    fn batch_spec() -> impl Strategy<Value = BatchSpec> {
        (
            0u8..3,
            prop::collection::vec(0u8..8, 1..6),
            prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..48),
            any::<bool>(),
        )
    }

    /// Timestamps sit on a 10 s cadence just behind the batch's collection
    /// time, so neighbouring points repeat, reorder and skip ahead; one
    /// class in sixteen is older than the default 900 s late slack.
    fn timestamp_of(collected_at: u64, class: u8) -> u64 {
        let back = if class.is_multiple_of(16) {
            1_000 + u64::from(class)
        } else {
            u64::from(class % 12) * 10
        };
        collected_at.saturating_sub(back)
    }

    fn value_of(class: u8, ts: u64, nan_heavy: bool) -> f64 {
        if nan_heavy && !class.is_multiple_of(4) {
            return f64::NAN;
        }
        match class % 6 {
            0 | 1 => 1.0 + (ts % 97) as f64 * 1e-3,
            2 | 3 => 4.25, // a repeating constant: feeds the stuck detector
            4 => f64::NAN,
            _ => f64::INFINITY,
        }
    }

    /// Builds the batches of a sequence; `collected_at` advances 40 s per
    /// batch. With `stray`, a point class of 255 names a dictionary index
    /// past the end (only hand-built batches can carry one).
    fn build(specs: &[BatchSpec], stray: bool) -> Vec<SampleBatch> {
        specs
            .iter()
            .enumerate()
            .map(|(i, (tenant, dict, points, nan_heavy))| {
                let collected_at = 1_000 + 40 * i as u64;
                let series: Vec<SeriesId> = dict.iter().map(|&n| sid(n)).collect();
                let points = points
                    .iter()
                    .map(|&(entry, ts_class, value_class)| {
                        let series = if stray && value_class == 255 {
                            dict.len() as u16 + u16::from(entry % 3)
                        } else {
                            u16::from(entry) % dict.len() as u16
                        };
                        let timestamp = timestamp_of(collected_at, ts_class);
                        WirePoint {
                            series,
                            timestamp,
                            value: value_of(value_class, timestamp, *nan_heavy),
                        }
                    })
                    .collect();
                SampleBatch::from_parts(&format!("t{tenant}"), collected_at, series, points)
            })
            .collect()
    }

    type PerSeries = BTreeMap<SeriesId, Vec<(u64, u64)>>;

    /// Admitted points per series, in append order.
    fn admitted_by_series(triples: impl Iterator<Item = (SeriesId, u64, f64)>) -> PerSeries {
        let mut out = PerSeries::new();
        for (id, ts, v) in triples {
            out.entry(id).or_default().push((ts, v.to_bits()));
        }
        out
    }

    /// Store contents down to the bytes, plus each series' counters.
    fn store_bytes(store: &TsdbStore) -> (Vec<u8>, Vec<(SeriesId, u64, u64)>) {
        let mut bytes = Vec::new();
        write_snapshot(store, &mut bytes).unwrap();
        let mut ids = store.series_ids();
        ids.sort();
        let counters = ids
            .into_iter()
            .map(|id| {
                let s = store.get(&id).unwrap();
                (id, s.version(), s.appended())
            })
            .collect();
        (bytes, counters)
    }

    fn quarantine() -> OrderedMutex<Quarantine> {
        OrderedMutex::new(
            LockDomain::Quarantine,
            Quarantine::new(QuarantineConfig::default(), 500),
        )
    }

    fn quarantine_contents(q: &OrderedMutex<Quarantine>) -> String {
        format!("{:?}", q.lock().entries().collect::<Vec<_>>())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn run_validator_matches_point_oracle(
            specs in prop::collection::vec(batch_spec(), 1..16),
            stuck_run in 2u32..6,
        ) {
            let config = ValidatorConfig { stuck_run, ..ValidatorConfig::default() };
            let mut runs = Validator::new(config);
            let mut points = PointValidator::new(config);
            for batch in build(&specs, true) {
                let want = points.validate(&batch);
                let got = runs.validate(batch);
                prop_assert_eq!(got.faults, want.faults);
                prop_assert_eq!(got.late_shed, want.late_shed);
                prop_assert_eq!(&got.nan_flagged, &want.nan_flagged);
                prop_assert_eq!(got.admitted(), want.routed.len());
                // Runs are ordered by shard, each carries its series' own
                // shard, and together they tile the point buffer.
                let mut next = 0;
                let mut last_shard = 0;
                for run in got.runs() {
                    let series = got.series_run(run).unwrap();
                    prop_assert_eq!(run.shard, TsdbStore::shard_of(series.id));
                    prop_assert!(run.shard >= last_shard);
                    prop_assert_eq!(run.start, next);
                    prop_assert!(run.end > run.start);
                    last_shard = run.shard;
                    next = run.end;
                }
                prop_assert_eq!(next, got.admitted());
                let got_points = admitted_by_series(got.runs().iter().flat_map(|run| {
                    let series = got.series_run(run).unwrap();
                    series.points.iter().map(move |p| (series.id.clone(), p.timestamp, p.value))
                }));
                prop_assert_eq!(got_points, admitted_by_series(want.routed.into_iter()));
            }
            prop_assert_eq!(runs.totals(), points.totals());
            prop_assert_eq!(&runs.per_series(), points.per_series());
        }

        #[test]
        fn run_ingest_matches_point_oracle(
            specs in prop::collection::vec(batch_spec(), 1..16),
            burst in 20u64..200,
            compressed in any::<bool>(),
        ) {
            // A quota tight enough that some tenants are denied, so whole
            // batches are shed and quarantined.
            let config = IngestConfig {
                queue_depth: 2,
                appenders: 3,
                quota: QuotaConfig { burst, points_per_sec: 1 },
                ..IngestConfig::default()
            };
            let store_config = if compressed {
                StoreConfig { seal_limit: 4, shard_budget_bytes: None, decode_cache_bytes: 4_096 }
            } else {
                StoreConfig::default()
            };
            let batches: Vec<Bytes> = build(&specs, false)
                .iter()
                .map(|b| encode_batch(b).unwrap())
                .collect();

            let oracle_store = TsdbStore::with_config(store_config);
            let oracle_quarantine = quarantine();
            let want = point_ingest(&oracle_store, &batches, config, &oracle_quarantine);

            let reference_store = TsdbStore::with_config(store_config);
            let reference_quarantine = quarantine();
            let got = reference_ingest(&reference_store, &batches, config, &reference_quarantine);
            prop_assert!(got.is_accounted(), "{got:?}");
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(store_bytes(&reference_store), store_bytes(&oracle_store));
            prop_assert_eq!(
                quarantine_contents(&reference_quarantine),
                quarantine_contents(&oracle_quarantine)
            );

            let threaded_store = Arc::new(TsdbStore::with_config(store_config));
            let threaded_quarantine = Arc::new(quarantine());
            let pipeline = IngestPipeline::with_quarantine(
                Arc::clone(&threaded_store),
                config,
                Arc::clone(&threaded_quarantine),
            );
            for raw in &batches {
                pipeline.submit(raw.clone()).unwrap();
            }
            let threaded = pipeline.finish();
            prop_assert_eq!(&threaded, &want);
            prop_assert_eq!(store_bytes(&threaded_store), store_bytes(&oracle_store));
            prop_assert_eq!(
                quarantine_contents(&threaded_quarantine),
                quarantine_contents(&oracle_quarantine)
            );
        }
    }

    #[test]
    fn stray_index_is_late_without_a_series_entry() {
        let batch = SampleBatch::from_parts(
            "t",
            100,
            vec![sid(0)],
            vec![
                WirePoint {
                    series: 0,
                    timestamp: 90,
                    value: 1.0,
                },
                WirePoint {
                    series: 7,
                    timestamp: 95,
                    value: 2.0,
                },
            ],
        );
        let mut runs = Validator::new(ValidatorConfig::default());
        let mut points = PointValidator::new(ValidatorConfig::default());
        let want = points.validate(&batch);
        let got = runs.validate(batch);
        assert_eq!(got.faults.late, 1);
        assert_eq!(got.faults, want.faults);
        assert_eq!(got.admitted(), 1);
        assert_eq!(runs.per_series().len(), 1);
        assert_eq!(&runs.per_series(), points.per_series());
    }
}
