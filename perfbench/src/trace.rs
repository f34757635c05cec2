//! Tracing from the benchmark's side of each layer boundary.
//!
//! Spans are opened and closed by the benchmark around its own calls into
//! the program (`IngestPipeline::submit`/`drain`, `Pipeline::new`/`scan`),
//! held in memory and written out when the run ends. Counters come from
//! what each layer already exposes — `StoreStats`, `EngineStats`,
//! `CacheStats`, `IngestStats` and `Pipeline::stage_profile()` — read
//! before and after a round and diffed. Nothing is instrumented inside the
//! program.

use fbd_ingest::IngestStats;
use fbd_tsdb::StoreStats;
use fbdetect_core::scan_cache::CacheStats;
use fbdetect_core::{EngineStats, FunnelCounters, Pipeline, ScanOutcome, StageNanos};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Round the span belongs to (warm-up rounds count from 0 too; timed
    /// rounds are offset by the warm-up count).
    pub round: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far, in opening order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, round: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            round,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `index`.
    pub fn close(&mut self, index: usize) {
        let end = self.now_ns();
        self.spans[index].end_ns = end;
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"round\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.round, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Opens a span when a tracer is present.
pub fn open(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    round: usize,
    parent: Option<usize>,
) -> Option<usize> {
    tracer.as_mut().map(|t| t.open(name, round, parent))
}

/// Closes a span opened by [`open`].
pub fn close(tracer: &mut Option<&mut Tracer>, span: Option<usize>) {
    if let (Some(t), Some(i)) = (tracer.as_mut(), span) {
        t.close(i);
    }
}

/// Store-wide counters read from `TsdbStore::stats()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounters {
    /// Sealed blocks decoded on any read path.
    pub blocks_decoded: u64,
    /// Decoded-block cache hits.
    pub decode_cache_hits: u64,
    /// Decoded-block cache evictions.
    pub decode_cache_evictions: u64,
}

impl StoreCounters {
    /// Reads the counters out of a stats walk.
    pub fn of(stats: &StoreStats) -> StoreCounters {
        StoreCounters {
            blocks_decoded: stats.blocks_decoded(),
            decode_cache_hits: stats.decode_cache_hits(),
            decode_cache_evictions: stats.decode_cache_evictions(),
        }
    }

    fn since(&self, earlier: &StoreCounters) -> StoreCounters {
        StoreCounters {
            blocks_decoded: self.blocks_decoded - earlier.blocks_decoded,
            decode_cache_hits: self.decode_cache_hits - earlier.decode_cache_hits,
            decode_cache_evictions: self.decode_cache_evictions - earlier.decode_cache_evictions,
        }
    }
}

/// Ingest counters read from `IngestPipeline::stats()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestCounters {
    /// Points submitted.
    pub submitted: u64,
    /// Points appended to the store.
    pub appended: u64,
    /// Points lost in any accounted bucket.
    pub lost: u64,
    /// Points shed by validation as late.
    pub late: u64,
}

impl IngestCounters {
    /// Reads the counters out of an ingest stats copy.
    pub fn of(stats: &IngestStats) -> IngestCounters {
        IngestCounters {
            submitted: stats.points_submitted,
            appended: stats.points_appended,
            lost: stats.points_submitted - stats.points_appended,
            late: stats.late_shed_points,
        }
    }

    fn since(&self, earlier: &IngestCounters) -> IngestCounters {
        IngestCounters {
            submitted: self.submitted - earlier.submitted,
            appended: self.appended - earlier.appended,
            lost: self.lost - earlier.lost,
            late: self.late - earlier.late,
        }
    }
}

/// Scan-pipeline counters read from one `Pipeline`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineCounters {
    /// `Pipeline::stage_profile()`.
    pub stages: StageNanos,
    /// `Pipeline::streaming_stats()`.
    pub engine: EngineStats,
    /// `Pipeline::cache_stats()`.
    pub cache: CacheStats,
}

impl PipelineCounters {
    /// Reads the counters of `pipeline`.
    pub fn of(pipeline: &Pipeline) -> PipelineCounters {
        PipelineCounters {
            stages: pipeline.stage_profile(),
            engine: pipeline.streaming_stats().unwrap_or_default(),
            cache: pipeline.cache_stats(),
        }
    }

    /// Counter growth since `earlier`; gauges (`tracked`,
    /// `resident_points`) keep their current value.
    pub fn since(&self, earlier: &PipelineCounters) -> PipelineCounters {
        let (e, b) = (&self.engine, &earlier.engine);
        PipelineCounters {
            stages: self.stages.since(&earlier.stages),
            engine: EngineStats {
                rounds: e.rounds - b.rounds,
                tracked: e.tracked,
                unchanged: e.unchanged - b.unchanged,
                appended_series: e.appended_series - b.appended_series,
                appended_points: e.appended_points - b.appended_points,
                resets: e.resets - b.resets,
                removed: e.removed - b.removed,
                reused_full: e.reused_full - b.reused_full,
                reused_quiet: e.reused_quiet - b.reused_quiet,
                gated: e.gated - b.gated,
                advanced_online: e.advanced_online - b.advanced_online,
                online_fallbacks: e.online_fallbacks - b.online_fallbacks,
                summary_hits: e.summary_hits - b.summary_hits,
                scanned: e.scanned - b.scanned,
                fallbacks: e.fallbacks - b.fallbacks,
                buffer_growth: e.buffer_growth - b.buffer_growth,
                resident_points: e.resident_points,
            },
            cache: CacheStats {
                hits: self.cache.hits - earlier.cache.hits,
                misses: self.cache.misses - earlier.cache.misses,
                evicted: self.cache.evicted - earlier.cache.evicted,
            },
        }
    }
}

/// Serial pipeline stages: they run on the scanning thread after the
/// parallel fan-out.
fn serial_ns(s: &StageNanos) -> u64 {
    s.went_away
        + s.seasonality
        + s.threshold
        + s.som_dedup
        + s.cost_shift
        + s.pairwise_dedup
        + s.root_cause
}

/// Parallel stages, summed over the detection workers.
fn parallel_ns(s: &StageNanos) -> u64 {
    s.ingest + s.windowing + s.short_term + s.long_term + s.complete
}

/// Per-layer totals over the traced rounds of a run.
#[derive(Debug, Default)]
pub struct LayerTotals {
    /// Traced rounds folded in.
    pub rounds: u64,
    /// Series handed to `Pipeline::scan`.
    pub series: u64,
    /// Nanoseconds inside `IngestPipeline::submit`.
    pub submit_ns: u64,
    /// Nanoseconds inside `IngestPipeline::drain`.
    pub drain_ns: u64,
    /// Nanoseconds inside `Pipeline::scan`.
    pub scan_ns: u64,
    /// Detection workers of the scanning pipelines.
    pub workers: u64,
    /// Ingest counter growth.
    pub ingest: IngestCounters,
    /// Store counter growth.
    pub store: StoreCounters,
    /// Pipeline counter growth (gauges: last value).
    pub pipeline: PipelineCounters,
    /// Funnel counts summed over rounds.
    pub funnel: FunnelCounters,
    /// Series skipped in quarantine, summed over rounds.
    pub quarantined: u64,
    /// Series scanned on partial windows, summed over rounds.
    pub partial: u64,
    /// Detector panics caught, summed over rounds.
    pub panicked: u64,
    /// Rounds that shed stages.
    pub degraded_rounds: u64,
    /// Reports carrying root-cause candidates.
    pub reports_with_candidates: u64,
    /// Sum over rounds of `1 - attributed / scan wall`.
    pub unattributed_sum: f64,
}

/// Counters of one traced round.
pub struct RoundCounters<'a> {
    /// Series scanned.
    pub series: u64,
    /// Nanoseconds in `submit`, `drain` and `scan`.
    pub submit_ns: u64,
    /// See `submit_ns`.
    pub drain_ns: u64,
    /// See `submit_ns`.
    pub scan_ns: u64,
    /// Detection workers.
    pub workers: u64,
    /// Ingest counters before and after.
    pub ingest: (IngestCounters, IngestCounters),
    /// Store counters before and after.
    pub store: (StoreCounters, StoreCounters),
    /// Pipeline counters before and after.
    pub pipeline: (PipelineCounters, PipelineCounters),
    /// The scan's outcome.
    pub outcome: &'a ScanOutcome,
}

impl LayerTotals {
    /// Folds one traced round in.
    pub fn add(&mut self, r: &RoundCounters<'_>) {
        self.rounds += 1;
        self.series += r.series;
        self.submit_ns += r.submit_ns;
        self.drain_ns += r.drain_ns;
        self.scan_ns += r.scan_ns;
        self.workers = r.workers;
        let ingest = r.ingest.1.since(&r.ingest.0);
        self.ingest.submitted += ingest.submitted;
        self.ingest.appended += ingest.appended;
        self.ingest.lost += ingest.lost;
        self.ingest.late += ingest.late;
        let store = r.store.1.since(&r.store.0);
        self.store.blocks_decoded += store.blocks_decoded;
        self.store.decode_cache_hits += store.decode_cache_hits;
        self.store.decode_cache_evictions += store.decode_cache_evictions;
        let p = r.pipeline.1.since(&r.pipeline.0);
        self.pipeline.stages.accumulate(&p.stages);
        let (acc, d) = (&mut self.pipeline.engine, &p.engine);
        acc.rounds += d.rounds;
        acc.tracked = d.tracked;
        acc.unchanged += d.unchanged;
        acc.appended_series += d.appended_series;
        acc.appended_points += d.appended_points;
        acc.resets += d.resets;
        acc.removed += d.removed;
        acc.reused_full += d.reused_full;
        acc.reused_quiet += d.reused_quiet;
        acc.gated += d.gated;
        acc.advanced_online += d.advanced_online;
        acc.online_fallbacks += d.online_fallbacks;
        acc.summary_hits += d.summary_hits;
        acc.scanned += d.scanned;
        acc.fallbacks += d.fallbacks;
        acc.buffer_growth += d.buffer_growth;
        acc.resident_points = d.resident_points;
        self.pipeline.cache.hits += p.cache.hits;
        self.pipeline.cache.misses += p.cache.misses;
        self.pipeline.cache.evicted += p.cache.evicted;
        self.funnel.accumulate(&r.outcome.funnel);
        let h = &r.outcome.health;
        self.quarantined += h.series_quarantined as u64;
        self.partial += h.series_partial as u64;
        self.panicked += h.panicked as u64;
        self.degraded_rounds += u64::from(h.degraded);
        self.reports_with_candidates += r
            .outcome
            .reports
            .iter()
            .filter(|rep| !rep.root_cause_candidates.is_empty())
            .count() as u64;
        let attributed =
            serial_ns(&p.stages) as f64 + parallel_ns(&p.stages) as f64 / r.workers.max(1) as f64;
        self.unattributed_sum += 1.0 - attributed / r.scan_ns.max(1) as f64;
    }
}

/// Ratio that reads 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
