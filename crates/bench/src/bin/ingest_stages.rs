//! Per-stage cost of the ingest front-end, in nanoseconds per point.
//!
//! Times each stage of the wire path on its own, single-threaded, over
//! pre-encoded batches: wire decode, validation (series resolution,
//! fault classification, per-series run gathering) and the run-based
//! store append; then the whole single-threaded `reference_ingest` and
//! the threaded `IngestPipeline` (blocking `submit`, then `finish`) over
//! the same batches into fresh compressed stores.
//!
//! Two batch shapes, both 2,000 series on a 60 s cadence split into eight
//! slices with one batch per slice per round:
//! - `live`: 3 fresh points per series per batch (a monitoring round);
//! - `backfill`: 15 points per series per batch (history replay).
//!
//! Each figure is the median of five trials, every trial on fresh state.
//! Nothing is written to disk.
//!
//! Run with: `cargo run --release -p fbd-bench --bin ingest_stages`

use bytes::Bytes;
use fbd_ingest::pipeline::{reference_ingest, IngestConfig, IngestPipeline};
use fbd_ingest::validate::Validator;
use fbd_ingest::wire::{decode_batch, encode_batch, SampleBatch};
use fbd_sync::{LockDomain, OrderedMutex};
use fbd_tsdb::{MetricKind, SeriesId, StoreConfig, TsdbStore};
use fbdetect_core::quarantine::{Quarantine, QuarantineConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

const SERIES: usize = 2_000;
const SLICES: usize = 8;
const CADENCE: u64 = 60;
const TRIALS: usize = 5;

/// Encoded batches: `rounds` rounds of `per_batch` points per series.
fn batches(rounds: usize, per_batch: usize, seed: u64) -> Vec<Bytes> {
    let ids: Vec<SeriesId> = (0..SERIES)
        .map(|i| {
            SeriesId::new(
                format!("svc{:02}", i % 16),
                MetricKind::GCpu,
                format!("sub{i:05}"),
            )
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut level: Vec<f64> = (0..SERIES).map(|_| rng.gen_range(1.0..100.0)).collect();
    let span = per_batch as u64 * CADENCE;
    let mut out = Vec::new();
    for round in 0..rounds {
        let first = round as u64 * span;
        for slice in ids
            .chunks(SERIES / SLICES)
            .zip(level.chunks_mut(SERIES / SLICES))
        {
            let (slice_ids, slice_levels) = slice;
            let mut batch = SampleBatch::new("bench", first + span);
            for k in 0..per_batch {
                let ts = first + k as u64 * CADENCE;
                for (id, v) in slice_ids.iter().zip(slice_levels.iter_mut()) {
                    *v += rng.gen_range(-0.5..0.5);
                    batch.push(id, ts, *v).expect("batch fits the wire format");
                }
            }
            out.push(encode_batch(&batch).expect("batch encodes"));
        }
    }
    out
}

fn quarantine() -> OrderedMutex<Quarantine> {
    OrderedMutex::new(
        LockDomain::Quarantine,
        Quarantine::new(QuarantineConfig::default(), 500),
    )
}

/// Per-trial stage times, in ns per point.
struct Trial {
    decode: f64,
    validate: f64,
    append: f64,
    reference: f64,
    threaded: f64,
}

fn trial(raw: &[Bytes], points: f64, config: IngestConfig) -> Trial {
    let per_point = |t: Instant| t.elapsed().as_nanos() as f64 / points;

    let t = Instant::now();
    let decoded: Vec<SampleBatch> = raw
        .iter()
        .map(|b| decode_batch(b).expect("decodes"))
        .collect();
    let decode = per_point(t);

    let mut validator = Validator::new(config.validator);
    let t = Instant::now();
    let validated: Vec<_> = decoded.into_iter().map(|b| validator.validate(b)).collect();
    let validate = per_point(t);

    let store = TsdbStore::with_config(StoreConfig::compressed());
    let t = Instant::now();
    for v in &validated {
        for (shard, runs) in v.shard_groups() {
            store.append_runs(shard, runs.iter().filter_map(|run| v.series_run(run)));
        }
    }
    let append = per_point(t);
    drop((validated, store));

    let store = TsdbStore::with_config(StoreConfig::compressed());
    let t = Instant::now();
    let stats = reference_ingest(&store, raw, config, &quarantine());
    let reference = per_point(t);
    assert!(stats.is_accounted() && stats.points_appended as f64 == points);
    drop(store);

    let store = Arc::new(TsdbStore::with_config(StoreConfig::compressed()));
    let t = Instant::now();
    let pipeline = IngestPipeline::new(Arc::clone(&store), config);
    for b in raw {
        pipeline.submit(b.clone()).expect("pipeline alive");
    }
    let stats = pipeline.finish();
    let threaded = per_point(t);
    assert!(stats.is_accounted() && stats.points_appended as f64 == points);

    Trial {
        decode,
        validate,
        append,
        reference,
        threaded,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let config = IngestConfig {
        appenders: IngestConfig::default().appenders.min(cores),
        ..IngestConfig::default()
    };
    println!("ingest stage costs, ns/point, median of {TRIALS} trials ({cores} cores)");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "shape", "points", "decode", "validate", "append", "reference", "threaded"
    );
    for (name, rounds, per_batch) in [("live", 100, 3), ("backfill", 30, 15)] {
        let raw = batches(rounds, per_batch, 7);
        let points = (rounds * per_batch * SERIES) as f64;
        let runs: Vec<Trial> = (0..TRIALS).map(|_| trial(&raw, points, config)).collect();
        let col = |f: fn(&Trial) -> f64| median(runs.iter().map(f).collect());
        println!(
            "{:<10} {:>9} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>9.0}",
            name,
            points,
            col(|t| t.decode),
            col(|t| t.validate),
            col(|t| t.append),
            col(|t| t.reference),
            col(|t| t.threaded),
        );
    }
}
