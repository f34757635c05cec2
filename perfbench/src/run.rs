//! The monitoring loop: set-up, warm-up, timed rounds and the correctness
//! gate.
//!
//! Every round is a closed loop on the main thread: submit the round's
//! wire batches, `drain()`, then scan (`cold_restart`: build a fresh
//! pipeline and scan one service). An untimed streaming-off reference
//! pipeline scans the same store at the same watermark and must produce a
//! byte-identical `render_batch` + funnel + health fingerprint.

use crate::inputs::{Inputs, Workload};
use crate::stats;
use crate::trace::{
    self, IngestCounters, LayerTotals, PipelineCounters, RoundCounters, StoreCounters, Tracer,
};
use fbd_ingest::{IngestConfig, IngestPipeline, IngestStats};
use fbd_tsdb::{SeriesId, StoreConfig, Timestamp, TsdbStore};
use fbdetect_core::{report, Pipeline, ScanContext, ScanOutcome};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// No run measures past this, even short of its minimum round count.
const HARD_LIMIT: Duration = Duration::from_secs(120);

/// What one run measures on top of its round timings.
pub struct Options {
    /// Nominal length of the timed phase; sets the timed round count.
    pub seconds: f64,
    /// Traced run: per-layer counters and spans on a seeded half of the
    /// timed rounds.
    pub trace: bool,
    /// Seed, for choosing the traced rounds.
    pub seed: u64,
}

/// One named number of a run; `None` where it does not apply.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Its value.
    pub value: Option<f64>,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything a run produced.
pub struct RunReport {
    /// No correctness check failed.
    pub correct: bool,
    /// Timed rounds run.
    pub attempted: usize,
    /// Timed rounds that failed a check.
    pub failed: usize,
    /// Descriptions of failed checks.
    pub problems: Vec<String>,
    /// End-to-end metrics, then (traced runs) per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Spans of the traced rounds.
    pub tracer: Option<Tracer>,
}

/// Wall time of the pieces of one round.
#[derive(Debug, Clone, Copy)]
struct RoundTimes {
    start: Instant,
    wall: Duration,
    submit: Duration,
    drain: Duration,
    scan: Duration,
    series: usize,
}

/// The set-up backfill of a workload that ingests nothing afterwards
/// (`cold_restart`): its timings and the finished ingest pipeline's
/// accounting.
struct Backfill {
    submit: Duration,
    drain: Duration,
    stats: IngestStats,
}

/// The ingest layer's share of a traced run: the traced rounds' submits
/// and drains, or on `cold_restart` the set-up backfill as one pass.
struct IngestLayer {
    passes: u64,
    submit_ns: u64,
    drain_ns: u64,
    counters: IngestCounters,
}

/// The system under test, as one set-up built it.
struct Monitor<'a> {
    inputs: &'a Inputs,
    store: Arc<TsdbStore>,
    ingest: Option<IngestPipeline>,
    /// Set when the ingest pipeline was finished during set-up.
    backfill: Option<Backfill>,
    pipeline: Pipeline,
    threads: usize,
    live_done: usize,
    rounds_done: usize,
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

fn fingerprint(outcome: &ScanOutcome, inputs: &Inputs) -> String {
    format!(
        "{}{:?}|{:?}",
        report::render_batch(&outcome.reports, inputs.changelog.as_ref()),
        outcome.funnel,
        outcome.health
    )
}

fn new_pipeline(inputs: &Inputs, threads: usize, streaming: bool) -> Pipeline {
    let mut pipeline =
        Pipeline::new(inputs.shape.detector_config()).expect("detector configuration is valid");
    pipeline.threads = threads;
    pipeline.set_streaming(streaming);
    pipeline
}

impl<'a> Monitor<'a> {
    /// Builds the store, backfills the history through the ingest
    /// pipeline and creates the scan pipeline. Warm-up rounds follow
    /// separately.
    fn build(inputs: &'a Inputs) -> Monitor<'a> {
        let cores = cores();
        let store = Arc::new(TsdbStore::with_config(StoreConfig::compressed()));
        let config = IngestConfig {
            appenders: IngestConfig::default().appenders.min(cores),
            ..IngestConfig::default()
        };
        let ingest = IngestPipeline::new(Arc::clone(&store), config);
        // `submit` takes its batch by value, and the vendored `Bytes` owns
        // its buffer: copy one batch at a time (a memcpy, well under 1% of
        // set-up) rather than the whole history up front.
        let t = Instant::now();
        for batch in &inputs.history {
            ingest.submit(batch.clone()).expect("ingest pipeline alive");
        }
        let submit = t.elapsed();
        let t = Instant::now();
        ingest.drain();
        let drain = t.elapsed();
        let (ingest, backfill) = if inputs.rounds.is_empty() {
            let stats = ingest.finish();
            (
                None,
                Some(Backfill {
                    submit,
                    drain,
                    stats,
                }),
            )
        } else {
            (Some(ingest), None)
        };
        let mut pipeline =
            Pipeline::new(inputs.shape.detector_config()).expect("detector configuration is valid");
        // Workers beyond the cores only time-slice.
        let threads = pipeline.threads.min(cores);
        pipeline.threads = threads;
        Monitor {
            inputs,
            store,
            ingest,
            backfill,
            pipeline,
            threads,
            live_done: 0,
            rounds_done: 0,
        }
    }

    /// The series and watermark the next round scans.
    fn next_scan(&self) -> (&'a [SeriesId], Timestamp) {
        let inputs = self.inputs;
        if inputs.workload == Workload::ColdRestart {
            let service = self.rounds_done % inputs.shape.services;
            (inputs.service_ids(service), inputs.shape.history_end())
        } else {
            (&inputs.ids, inputs.shape.watermark(self.live_done + 1))
        }
    }

    fn ingest_counters(&self) -> IngestCounters {
        self.ingest
            .as_ref()
            .map(|i| IngestCounters::of(&i.stats()))
            .unwrap_or_default()
    }

    /// Runs one round. With `totals`, the round is traced: spans go to
    /// `tracer` and counter deltas into `totals`.
    fn round(
        &mut self,
        mut tracer: Option<&mut Tracer>,
        totals: Option<&mut LayerTotals>,
    ) -> (Result<ScanOutcome, String>, RoundTimes) {
        let inputs = self.inputs;
        let round_id = self.rounds_done;
        let traced = totals.is_some();
        let (ids, now) = self.next_scan();
        let context = ScanContext {
            changelog: inputs.changelog.as_ref(),
            ..ScanContext::default()
        };
        // Copied before the clock starts: the buffers are the inputs, not
        // the round's work.
        let batches = match &self.ingest {
            Some(_) => inputs.rounds[self.live_done].clone(),
            None => Vec::new(),
        };
        let start = Instant::now();
        let mut times = RoundTimes {
            start,
            wall: Duration::ZERO,
            submit: Duration::ZERO,
            drain: Duration::ZERO,
            scan: Duration::ZERO,
            series: ids.len(),
        };
        let root = trace::open(&mut tracer, "round", round_id, None);
        let before = traced.then(|| {
            (
                self.ingest_counters(),
                StoreCounters::of(&self.store.stats()),
                PipelineCounters::of(&self.pipeline),
            )
        });
        if let Some(ingest) = &self.ingest {
            let span = trace::open(&mut tracer, "ingest.submit", round_id, root);
            let t = Instant::now();
            for batch in batches {
                ingest.submit(batch).expect("ingest pipeline alive");
            }
            times.submit = t.elapsed();
            trace::close(&mut tracer, span);
            let span = trace::open(&mut tracer, "ingest.drain", round_id, root);
            let t = Instant::now();
            ingest.drain();
            times.drain = t.elapsed();
            trace::close(&mut tracer, span);
            self.live_done += 1;
        }
        let (outcome, pipeline_counters) = if inputs.workload == Workload::ColdRestart {
            let span = trace::open(&mut tracer, "pipeline.new", round_id, root);
            let mut fresh = new_pipeline(inputs, self.threads, true);
            trace::close(&mut tracer, span);
            let span = trace::open(&mut tracer, "pipeline.scan", round_id, root);
            let t = Instant::now();
            let outcome = fresh.scan(&self.store, ids, now, &context);
            times.scan = t.elapsed();
            trace::close(&mut tracer, span);
            let counters =
                traced.then(|| (PipelineCounters::default(), PipelineCounters::of(&fresh)));
            drop(fresh);
            (outcome, counters)
        } else {
            let span = trace::open(&mut tracer, "pipeline.scan", round_id, root);
            let t = Instant::now();
            let outcome = self.pipeline.scan(&self.store, ids, now, &context);
            times.scan = t.elapsed();
            trace::close(&mut tracer, span);
            let counters = before.map(|b| (b.2, PipelineCounters::of(&self.pipeline)));
            (outcome, counters)
        };
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                trace::close(&mut tracer, root);
                times.wall = start.elapsed();
                self.rounds_done += 1;
                return (Err(e.to_string()), times);
            }
        };
        if let (Some(totals), Some(before), Some(pipeline)) = (totals, before, pipeline_counters) {
            totals.add(&RoundCounters {
                series: times.series as u64,
                submit_ns: times.submit.as_nanos() as u64,
                drain_ns: times.drain.as_nanos() as u64,
                scan_ns: times.scan.as_nanos() as u64,
                workers: self.threads as u64,
                ingest: (before.0, self.ingest_counters()),
                store: (before.1, StoreCounters::of(&self.store.stats())),
                pipeline,
                outcome: &outcome,
            });
        }
        trace::close(&mut tracer, root);
        times.wall = start.elapsed();
        self.rounds_done += 1;
        (Ok(outcome), times)
    }
}

/// The streaming-off reference and its comparison schedule.
struct Gate {
    reference: Option<Pipeline>,
    reference_now: Option<Timestamp>,
    checks: usize,
    problems: Vec<String>,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            reference: None,
            reference_now: None,
            checks: 0,
            problems: Vec::new(),
        }
    }

    /// Compares `outcome` of the round that scanned `ids` at `now` with
    /// the reference. Live workloads keep one reference pipeline that
    /// scans every watermark the main pipeline reaches (state-bearing
    /// stages see the same sequence); `cold_restart` builds a fresh one
    /// on sampled rounds. `force` compares a round the schedule would
    /// skip (the final one). Returns `(passed, compared)`.
    fn check(
        &mut self,
        monitor: &Monitor<'_>,
        ids: &[SeriesId],
        now: Timestamp,
        outcome: &ScanOutcome,
        force: bool,
    ) -> (bool, bool) {
        let inputs = monitor.inputs;
        let mut ok = true;
        if outcome.health.panicked > 0 {
            self.problems.push(format!(
                "round {}: {} detector panics",
                monitor.rounds_done, outcome.health.panicked
            ));
            ok = false;
        }
        let context = ScanContext {
            changelog: inputs.changelog.as_ref(),
            ..ScanContext::default()
        };
        let reference = if inputs.workload == Workload::ColdRestart {
            // Every (services + 1)-th round, so the samples rotate
            // through the services.
            let sampled = (monitor.rounds_done - 1).is_multiple_of(inputs.shape.services + 1);
            if !sampled && !force {
                return (ok, false);
            }
            self.reference
                .insert(new_pipeline(inputs, monitor.threads, false))
        } else {
            if self.reference_now == Some(now) && !force {
                return (ok, false);
            }
            self.reference
                .get_or_insert_with(|| new_pipeline(inputs, monitor.threads, false))
        };
        self.reference_now = Some(now);
        self.checks += 1;
        match reference.scan(&monitor.store, ids, now, &context) {
            Ok(expected) => {
                let (want, got) = (fingerprint(&expected, inputs), fingerprint(outcome, inputs));
                if want != got {
                    let (w, g) = want
                        .lines()
                        .zip(got.lines())
                        .find(|(w, g)| w != g)
                        .unwrap_or(("<shorter>", "<shorter>"));
                    self.problems.push(format!(
                        "round {}: streaming scan at now={now} differs from the streaming-off \
                         reference: expected {w:?}, got {g:?}",
                        monitor.rounds_done
                    ));
                    ok = false;
                }
            }
            Err(e) => {
                self.problems.push(format!(
                    "round {}: reference scan failed: {e}",
                    monitor.rounds_done
                ));
                ok = false;
            }
        }
        (ok, true)
    }
}

/// Detection bookkeeping against the ground truth.
struct Detections {
    index: HashMap<SeriesId, usize>,
    reports: usize,
    false_reports: usize,
    /// Per injection: (lag seconds, lag rounds) once reported.
    lags: Vec<Option<(f64, usize)>>,
}

impl Detections {
    fn new(inputs: &Inputs) -> Detections {
        Detections {
            index: inputs
                .ids
                .iter()
                .enumerate()
                .map(|(i, id)| (id.clone(), i))
                .collect(),
            reports: 0,
            false_reports: 0,
            lags: vec![None; inputs.injections.len()],
        }
    }

    /// Records a round's reports; `timed` is `(timed round index, end of
    /// the round, submit instants of every timed round so far)`.
    fn record(
        &mut self,
        inputs: &Inputs,
        outcome: &ScanOutcome,
        timed: Option<(usize, Instant, &[Instant])>,
    ) {
        for report in &outcome.reports {
            let Some(&i) = self.index.get(&report.series) else {
                continue;
            };
            self.reports += 1;
            if !inputs.truth[i] {
                self.false_reports += 1;
            }
            let Some((round, end, starts)) = timed else {
                continue;
            };
            for (k, injection) in inputs.injections.iter().enumerate() {
                let tolerance = 10 * crate::inputs::CADENCE;
                if self.lags[k].is_none()
                    && injection.series == i
                    && round >= injection.round
                    && report.change_time + tolerance >= injection.at
                {
                    let lag = end.duration_since(starts[injection.round]).as_secs_f64();
                    self.lags[k] = Some((lag, round - injection.round + 1));
                }
            }
        }
    }
}

fn metric(name: &str, value: Option<f64>, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Builds the system and runs the warm-up rounds, with the gate and the
/// ground-truth bookkeeping following along. Returns the monitor and the
/// set-up time: store build, backfill and warm-up rounds, without the
/// gate's reference scans.
fn set_up<'a>(
    inputs: &'a Inputs,
    gate: &mut Gate,
    detections: &mut Detections,
) -> (Monitor<'a>, f64) {
    let t = Instant::now();
    let mut monitor = Monitor::build(inputs);
    let mut elapsed = t.elapsed();
    for _ in 0..inputs.shape.warmup_rounds {
        let (ids, now) = monitor.next_scan();
        let (outcome, times) = monitor.round(None, None);
        elapsed += times.wall;
        match outcome {
            Ok(outcome) => {
                let _ = gate.check(&monitor, ids, now, &outcome, false);
                detections.record(inputs, &outcome, None);
            }
            Err(e) => gate.problems.push(format!("warm-up scan failed: {e}")),
        }
    }
    (monitor, elapsed.as_secs_f64())
}

/// One set-up and nothing else, in seconds. `run.py` runs it in fresh
/// processes next to the measured run and reports the median `setup_s`;
/// several set-ups in one process would leave the allocator's heap, and so
/// the measured run's peak RSS, depending on how they interleaved.
pub fn setup_only(inputs: &Inputs) -> f64 {
    let (monitor, secs) = set_up(inputs, &mut Gate::new(), &mut Detections::new(inputs));
    finish(monitor);
    secs
}

/// Runs one workload end to end.
pub fn run(inputs: &Inputs, options: &Options) -> RunReport {
    let shape = inputs.shape;
    let started = Instant::now();

    let mut gate = Gate::new();
    let mut detections = Detections::new(inputs);
    let (mut monitor, setup_secs) = set_up(inputs, &mut gate, &mut detections);
    // Warm-up checks cover state alignment; only timed rounds count as
    // attempts.
    let mut problems = std::mem::take(&mut gate.problems);

    let mut tracer = options.trace.then(Tracer::new);
    let mut totals = LayerTotals::default();
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut walls = Vec::new();
    let mut starts = Vec::new();
    let mut scan_secs = 0.0;
    let mut series_scanned = 0usize;
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let ingest_before = monitor.ingest_counters();
    let mut measured = Duration::ZERO;
    let mut last = None;
    let timed_rounds = shape.timed_rounds(options.seconds);
    while attempted < timed_rounds && started.elapsed() < HARD_LIMIT {
        let timed = attempted;
        attempted += 1;
        let traced = options.trace && crate::inputs::coin(options.seed, timed);
        let (ids, now) = monitor.next_scan();
        let (outcome, times) = if traced {
            monitor.round(tracer.as_mut(), Some(&mut totals))
        } else {
            monitor.round(None, None)
        };
        let wall = times.wall.as_secs_f64() * 1e3;
        walls.push(wall);
        if traced {
            traced_walls.push(wall);
        } else {
            untraced_walls.push(wall);
        }
        measured += times.wall;
        starts.push(times.start);
        scan_secs += times.scan.as_secs_f64();
        series_scanned += times.series;
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                gate.problems
                    .push(format!("timed round {timed}: scan failed: {e}"));
                failed += 1;
                continue;
            }
        };
        let end = times.start + times.wall;
        detections.record(inputs, &outcome, Some((timed, end, &starts)));
        let (passed, compared) = gate.check(&monitor, ids, now, &outcome, false);
        failed += usize::from(!passed);
        last = Some((ids, now, outcome, compared));
    }
    // The final round is always compared. A held watermark is scanned a
    // second time by the reference, which leaves its state where the
    // measured pipeline's repeated scans left it.
    if let Some((ids, now, outcome, false)) = last {
        let (passed, _) = gate.check(&monitor, ids, now, &outcome, true);
        failed += usize::from(!passed);
    }
    problems.append(&mut gate.problems);
    let ingest_after = monitor.ingest_counters();
    let timed_secs = measured.as_secs_f64();
    let threads = monitor.threads;
    let store_stats = monitor.store.stats();
    let engine_end = monitor.pipeline.streaming_stats().unwrap_or_default();
    let ingest_layer = match &monitor.backfill {
        Some(b) => IngestLayer {
            passes: 1,
            submit_ns: b.submit.as_nanos() as u64,
            drain_ns: b.drain.as_nanos() as u64,
            counters: IngestCounters::of(&b.stats),
        },
        None => IngestLayer {
            passes: totals.rounds,
            submit_ns: totals.submit_ns,
            drain_ns: totals.drain_ns,
            counters: totals.ingest,
        },
    };
    let ingest_stats = finish(monitor);
    if !ingest_stats.is_accounted() {
        problems.push(format!("ingest accounting broken: {ingest_stats:?}"));
    }

    // End-to-end metrics.
    let (tail_level, tail_value, samples) = stats::tail_percentile(&walls)
        .map_or((None, None, walls.len()), |(l, v, n)| (Some(l), Some(v), n));
    let timed_points = ingest_after.appended - ingest_before.appended;
    let lags: Vec<(f64, usize)> = detections.lags.iter().flatten().copied().collect();
    let missed = detections.lags.iter().filter(|l| l.is_none()).count();
    let live = !inputs.rounds.is_empty();
    let injected = !inputs.injections.is_empty();
    let mut metrics = vec![
        metric("setup_s", Some(setup_secs), "s"),
        metric("round_ms_p50", stats::median(&walls), "ms"),
        metric("round_ms_p90", stats::percentile(&walls, 90.0), "ms"),
        metric("round_samples", Some(samples as f64), "count"),
        metric("round_ms_tail_level", tail_level, "%"),
        metric("round_ms_tail", tail_value, "ms"),
        metric(
            "scan_series_per_s",
            (scan_secs > 0.0).then(|| series_scanned as f64 / scan_secs),
            "1/s",
        ),
        metric(
            "points_per_s",
            live.then(|| timed_points as f64 / timed_secs),
            "1/s",
        ),
        metric(
            "detect_lag_s",
            injected
                .then(|| stats::median(&lags.iter().map(|l| l.0).collect::<Vec<_>>()))
                .flatten(),
            "s",
        ),
        metric(
            "detect_lag_rounds",
            injected
                .then(|| stats::median(&lags.iter().map(|l| l.1 as f64).collect::<Vec<_>>()))
                .flatten(),
            "rounds",
        ),
        metric(
            "missed_share",
            injected.then(|| missed as f64 / inputs.injections.len() as f64),
            "ratio",
        ),
        metric(
            "false_report_share",
            (detections.reports > 0)
                .then(|| detections.false_reports as f64 / detections.reports as f64),
            "ratio",
        ),
        metric(
            "shed_share",
            live.then(|| {
                trace::ratio(
                    (ingest_stats.points_submitted - ingest_stats.points_appended) as f64,
                    ingest_stats.points_submitted as f64,
                )
            }),
            "ratio",
        ),
        metric("gate_checks", Some(gate.checks as f64), "count"),
        metric("threads", Some(threads as f64), "count"),
    ];
    if options.trace {
        metrics.extend(layer_metrics(
            &totals,
            &ingest_layer,
            &store_stats,
            &engine_end,
            &ingest_stats,
            stats::median(&traced_walls),
            stats::median(&untraced_walls),
        ));
    }
    RunReport {
        correct: problems.is_empty(),
        attempted,
        failed,
        problems,
        metrics,
        tracer,
    }
}

/// Shuts the monitor's ingest pipeline down and returns its accounting.
fn finish(monitor: Monitor<'_>) -> IngestStats {
    match (monitor.ingest, monitor.backfill) {
        (Some(ingest), _) => ingest.finish(),
        (None, Some(backfill)) => backfill.stats,
        (None, None) => IngestStats::default(),
    }
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    t: &LayerTotals,
    i: &IngestLayer,
    store: &fbd_tsdb::StoreStats,
    engine_end: &fbdetect_core::EngineStats,
    ingest: &IngestStats,
    traced_p50: Option<f64>,
    untraced_p50: Option<f64>,
) -> Vec<Metric> {
    let rounds = t.rounds.max(1) as f64;
    let passes = i.passes.max(1) as f64;
    let series = t.series.max(1) as f64;
    let s = &t.pipeline.stages;
    let e = &t.pipeline.engine;
    let c = &t.pipeline.cache;
    let f = &t.funnel;
    let per_round = |ns: u64| Some(ns as f64 / rounds);
    let per_series = |ns: u64| Some(ns as f64 / series);
    let count = |n: u64| Some(n as f64);
    let faulted = ingest
        .per_series_faults
        .values()
        .filter(|f| !f.is_clean())
        .count() as u64;
    let resident_points = if engine_end.resident_points > 0 {
        engine_end.resident_points
    } else {
        e.resident_points
    };
    vec![
        metric(
            "ingest.submit_wait_ms",
            Some(i.submit_ns as f64 / passes / 1e6),
            "ms",
        ),
        metric(
            "ingest.drain_ms",
            Some(i.drain_ns as f64 / passes / 1e6),
            "ms",
        ),
        metric(
            "ingest.ns_per_point",
            Some(trace::ratio(
                (i.submit_ns + i.drain_ns) as f64,
                i.counters.submitted as f64,
            )),
            "ns",
        ),
        metric(
            "ingest.points_appended",
            count(i.counters.appended),
            "count",
        ),
        metric("ingest.points_shed", count(i.counters.lost), "count"),
        metric("ingest.late_shed_points", count(i.counters.late), "count"),
        metric("ingest.faulted_series", count(faulted), "count"),
        metric(
            "tsdb.resident_bytes",
            Some(store.resident_bytes() as f64),
            "bytes",
        ),
        metric(
            "tsdb.bytes_per_point",
            Some(store.bytes_per_point()),
            "bytes",
        ),
        metric(
            "tsdb.sealed_blocks",
            Some(store.sealed_blocks() as f64),
            "count",
        ),
        metric(
            "tsdb.blocks_decoded",
            count(t.store.blocks_decoded),
            "count",
        ),
        metric(
            "tsdb.decode_cache_hits",
            count(t.store.decode_cache_hits),
            "count",
        ),
        metric(
            "tsdb.decode_cache_hit_ratio",
            Some(trace::ratio(
                t.store.decode_cache_hits as f64,
                (t.store.decode_cache_hits + t.store.blocks_decoded) as f64,
            )),
            "ratio",
        ),
        metric(
            "tsdb.decode_cache_evictions",
            count(t.store.decode_cache_evictions),
            "count",
        ),
        metric(
            "tsdb.decode_cache_bytes",
            Some(store.decode_cache_bytes() as f64),
            "bytes",
        ),
        metric(
            "tsdb.windowing_ns_per_series",
            per_series(s.windowing),
            "ns",
        ),
        metric(
            "scan_state.ingest_ns_per_series",
            per_series(s.ingest),
            "ns",
        ),
        metric(
            "scan_state.complete_ns_per_series",
            per_series(s.complete),
            "ns",
        ),
        metric("scan_state.reused_full", count(e.reused_full), "count"),
        metric("scan_state.reused_quiet", count(e.reused_quiet), "count"),
        metric(
            "scan_state.advanced_online",
            count(e.advanced_online),
            "count",
        ),
        metric(
            "scan_state.online_fallbacks",
            count(e.online_fallbacks),
            "count",
        ),
        metric("scan_state.gated", count(e.gated), "count"),
        metric("scan_state.scanned", count(e.scanned), "count"),
        metric("scan_state.fallbacks", count(e.fallbacks), "count"),
        metric("scan_state.buffer_growth", count(e.buffer_growth), "count"),
        metric(
            "scan_state.resident_points",
            count(resident_points),
            "count",
        ),
        metric(
            "scan_state.reuse_ratio",
            Some(trace::ratio(
                e.summary_hits as f64,
                (e.summary_hits + e.scanned) as f64,
            )),
            "ratio",
        ),
        metric(
            "scan_state.online_refute_ratio",
            Some(trace::ratio(
                e.advanced_online as f64,
                (e.advanced_online + e.online_fallbacks) as f64,
            )),
            "ratio",
        ),
        metric("change_point.ns_per_series", per_series(s.short_term), "ns"),
        metric(
            "change_point.candidates",
            count(f.change_points as u64),
            "count",
        ),
        metric("long_term.ns_per_series", per_series(s.long_term), "ns"),
        metric("went_away.ns_per_series", per_series(s.went_away), "ns"),
        metric("went_away.kept", count(f.after_went_away as u64), "count"),
        metric("seasonality.ns_per_series", per_series(s.seasonality), "ns"),
        metric(
            "seasonality.kept",
            count(f.after_seasonality as u64),
            "count",
        ),
        metric("threshold.ns_per_round", per_round(s.threshold), "ns"),
        metric("threshold.kept", count(f.after_threshold as u64), "count"),
        metric("dedup.som_ns_per_round", per_round(s.som_dedup), "ns"),
        metric(
            "dedup.pairwise_ns_per_round",
            per_round(s.pairwise_dedup),
            "ns",
        ),
        metric("dedup.after_som", count(f.after_som_dedup as u64), "count"),
        metric(
            "dedup.after_pairwise",
            count(f.after_pairwise_dedup as u64),
            "count",
        ),
        metric("cost_shift.ns_per_round", per_round(s.cost_shift), "ns"),
        metric("cost_shift.kept", count(f.after_cost_shift as u64), "count"),
        metric("root_cause.ns_per_round", per_round(s.root_cause), "ns"),
        metric(
            "root_cause.reports_with_candidates",
            count(t.reports_with_candidates),
            "count",
        ),
        metric(
            "scan_cache.hit_ratio",
            Some(trace::ratio(c.hits as f64, (c.hits + c.misses) as f64)),
            "ratio",
        ),
        metric("scan_cache.lookups", count(c.hits + c.misses), "count"),
        metric(
            "pipeline.scan_ms",
            Some(t.scan_ns as f64 / rounds / 1e6),
            "ms",
        ),
        metric(
            "pipeline.unattributed_share",
            Some(t.unattributed_sum / rounds),
            "ratio",
        ),
        metric("pipeline.series_quarantined", count(t.quarantined), "count"),
        metric("pipeline.series_partial", count(t.partial), "count"),
        metric("pipeline.panicked", count(t.panicked), "count"),
        metric(
            "pipeline.degraded_rounds",
            count(t.degraded_rounds),
            "count",
        ),
        metric("trace.traced_rounds", count(t.rounds), "count"),
        metric(
            "trace.overhead_ms",
            traced_p50.zip(untraced_p50).map(|(a, b)| a - b),
            "ms",
        ),
    ]
}
